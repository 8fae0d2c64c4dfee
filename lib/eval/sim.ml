module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op

(* A design compiled for evaluation: its nodes in topological order as
   flat instructions over dense value indices, both read off the
   graph's index, so that the per-sample loop walks no graph, scans no
   input list and looks up no binding. Call nodes point at the
   compiled program of the module part they are bound to. *)
type instr =
  | Load of int * int  (* dst, primary-input position *)
  | Set of int * int  (* dst, constant *)
  | Unary of Op.t * int * int  (* op, operand, dst *)
  | Binary of Op.t * int * int * int  (* op, operands, dst *)
  | Invoke of program * int array * int  (* part, argument values, first result value *)

and program = {
  n_inputs : int;
  n_values : int;
  code : instr array;
  delay_out : int array;  (* per Delay node: the value it drives *)
  delay_in : int array;  (* per Delay node: the value it latches *)
  delay_init : int array;
  results : int array;  (* per primary output: the value it reads *)
}

let width_mismatch () = invalid_arg "Sim: input vector width mismatch"

(* [compiled] memoizes parts by physical identity within one [run], so
   a part reached by several calls is compiled once. *)
let rec compile compiled (design : Design.t) =
  match List.assq_opt design !compiled with
  | Some prog -> prog
  | None ->
      let dfg = design.Design.dfg in
      let nodes = dfg.Dfg.nodes in
      let vi p = Design.value_index dfg p in
      let input_pos = Array.make (Array.length nodes) 0 in
      Array.iteri (fun pos id -> input_pos.(id) <- pos) dfg.Dfg.inputs;
      let code =
        Dfg.topo_order dfg |> Array.to_list
        |> List.filter_map (fun id ->
               let node = nodes.(id) in
               let dst = vi { Dfg.node = id; out = 0 } in
               match node.Dfg.kind with
               | Dfg.Input -> Some (Load (dst, input_pos.(id)))
               | Dfg.Const v -> Some (Set (dst, v))
               | Dfg.Delay _ | Dfg.Output -> None
               | Dfg.Op op ->
                   (* a built graph has validated arities: 1 or 2 operands *)
                   let ins = Array.map vi node.Dfg.ins in
                   Some
                     (if Array.length ins = 1 then Unary (op, ins.(0), dst)
                      else Binary (op, ins.(0), ins.(1), dst))
               | Dfg.Call behavior ->
                   let rm =
                     match design.Design.insts.(design.Design.node_inst.(id)) with
                     | Design.Module rm -> rm
                     | Design.Simple _ -> invalid_arg "Sim: call bound to simple unit"
                   in
                   let part = compile compiled (Design.module_part rm behavior) in
                   if Array.length node.Dfg.ins <> part.n_inputs then width_mismatch ();
                   Some (Invoke (part, Array.map vi node.Dfg.ins, dst)))
        |> Array.of_list
      in
      let delays =
        List.filter_map
          (fun id ->
            match nodes.(id).Dfg.kind with
            | Dfg.Delay init -> Some (vi { Dfg.node = id; out = 0 }, vi nodes.(id).Dfg.ins.(0), init)
            | _ -> None)
          (List.init (Array.length nodes) Fun.id)
        |> Array.of_list
      in
      let prog =
        {
          n_inputs = Array.length dfg.Dfg.inputs;
          n_values = Design.n_values dfg;
          code;
          delay_out = Array.map (fun (o, _, _) -> o) delays;
          delay_in = Array.map (fun (_, i, _) -> i) delays;
          delay_init = Array.map (fun (_, _, v) -> v) delays;
          results = dfg.Dfg.index.Dfg.output_values;
        }
      in
      compiled := (design, prog) :: !compiled;
      prog

(* One invocation: seed the delay outputs from [state] (their consumers
   run before the Delay latches), then run the code. Module parts run
   with fresh state: module behaviors are stateless. *)
let rec exec prog state (inputs : int array) =
  let values = Array.make prog.n_values 0 in
  Array.iteri (fun k v -> values.(prog.delay_out.(k)) <- v) state;
  Array.iter
    (function
      | Load (dst, pos) -> values.(dst) <- inputs.(pos)
      | Set (dst, v) -> values.(dst) <- v
      | Unary (op, a, dst) -> values.(dst) <- Op.eval1 op values.(a)
      | Binary (op, a, b, dst) -> values.(dst) <- Op.eval2 op values.(a) values.(b)
      | Invoke (part, args, dst) ->
          let inner = exec part part.delay_init (Array.map (fun a -> values.(a)) args) in
          Array.iteri (fun j r -> values.(dst + j) <- inner.(r)) part.results)
    prog.code;
  values

let run (design : Design.t) invocations =
  let n_inputs = Array.length design.Design.dfg.Dfg.inputs in
  match invocations with
  | [] -> [||]
  | first :: _ ->
      if Array.length first <> n_inputs then width_mismatch ();
      let prog = compile (ref []) design in
      let state = Array.copy prog.delay_init in
      Array.of_list
        (List.map
           (fun inputs ->
             if Array.length inputs <> n_inputs then width_mismatch ();
             let values = exec prog state inputs in
             Array.iteri (fun k src -> state.(k) <- values.(src)) prog.delay_in;
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
