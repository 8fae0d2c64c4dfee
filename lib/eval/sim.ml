module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op

(* One invocation of [design], walking its graph's index into a fresh
   values array. A delay reads the value that fed it in [prev], the
   previous invocation's values, or starts from its initial value when
   there is none; its readers run before it latches, so the topological
   walk skips it. A call evaluates the module part it is bound to with
   fresh delays: module behaviors are stateless. *)
let rec invoke (design : Design.t) prev (inputs : int array) =
  let dfg = design.Design.dfg in
  let nodes = dfg.Dfg.nodes and ix = dfg.Dfg.index in
  let value_off = ix.Dfg.value_off and in_off = ix.Dfg.in_off and in_val = ix.Dfg.in_val in
  let input_ids = dfg.Dfg.inputs in
  if Array.length inputs <> Array.length input_ids then
    invalid_arg "Sim: input vector width mismatch";
  let values = Array.make (Design.n_values dfg) 0 in
  for pos = 0 to Array.length input_ids - 1 do
    values.(value_off.(input_ids.(pos))) <- inputs.(pos)
  done;
  let fixed = ix.Dfg.fixed_values in
  for k = 0 to Array.length fixed - 1 do
    let v = fixed.(k) in
    let id = ix.Dfg.value_node.(v) in
    (* [fixed_values] holds the values of constants and delays only *)
    match (nodes.(id).Dfg.kind, prev) with
    | Dfg.Const c, _ -> values.(v) <- c
    | Dfg.Delay _, Some prev -> values.(v) <- prev.(in_val.(in_off.(id)))
    | Dfg.Delay init, None -> values.(v) <- init
    | _ -> ()
  done;
  let order = ix.Dfg.order in
  for k = 0 to Array.length order - 1 do
    let id = order.(k) in
    match nodes.(id).Dfg.kind with
    | Dfg.Op op ->
        (* a built graph has validated arities: 1 or 2 operands *)
        let first = in_off.(id) in
        values.(value_off.(id)) <-
          (if in_off.(id + 1) - first = 1 then Op.eval1 op values.(in_val.(first))
           else Op.eval2 op values.(in_val.(first)) values.(in_val.(first + 1)))
    | Dfg.Call behavior ->
        let part =
          match design.Design.insts.(design.Design.node_inst.(id)) with
          | Design.Module rm -> Design.module_part rm behavior
          | Design.Simple _ -> invalid_arg "Sim: call bound to simple unit"
        in
        let first = in_off.(id) in
        let args = Array.init (in_off.(id + 1) - first) (fun p -> values.(in_val.(first + p))) in
        let inner = invoke part None args in
        let results = part.Design.dfg.Dfg.index.Dfg.output_values in
        for j = 0 to Array.length results - 1 do
          values.(value_off.(id) + j) <- inner.(results.(j))
        done
    | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> ()
  done;
  values

let run (design : Design.t) invocations =
  let prev = ref None in
  Array.of_list
    (List.map
       (fun inputs ->
         let values = invoke design !prev inputs in
         prev := Some values;
         values)
       invocations)

let outputs (design : Design.t) streams =
  let results = design.Design.dfg.Dfg.index.Dfg.output_values in
  Array.to_list streams |> List.map (fun values -> Array.map (fun v -> values.(v)) results)

(* A trivial design wrapper lets the flat reference path reuse [run]:
   bind nothing (flat graphs evaluated purely). *)
let run_flat (dfg : Dfg.t) invocations =
  if Dfg.n_calls dfg > 0 then invalid_arg "Sim.run_flat: graph must be flat";
  let design =
    {
      Design.dfg;
      insts = [||];
      node_inst = Array.make (Array.length dfg.Dfg.nodes) (-1);
      value_reg = Array.make (Design.n_values dfg) (-1);
      n_regs = 0;
    }
  in
  outputs design (run design invocations)
