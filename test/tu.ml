(* Shared helpers for the test suite. *)

module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Registry = Hsyn_dfg.Registry
module B = Hsyn_dfg.Dfg.Builder
module Design = Hsyn_rtl.Design
module Library = Hsyn_modlib.Library
module Sched = Hsyn_sched.Sched
module Initial = Hsyn_core.Initial
module Rng = Hsyn_util.Rng
module Trace = Hsyn_eval.Trace

let ctx ?(vdd = 5.0) ?(clk_ns = 20.0) () = { Design.lib = Library.default; vdd; clk_ns }

let no_complexes (_ : string) : Design.rtl_module list = []

(* Initial (fully parallel) design for a DFG with an empty complex
   library: hierarchical nodes get recursively built initial modules. *)
let initial ?(registry = Registry.create ()) ctx dfg =
  Initial.build ctx ~complexes:no_complexes registry dfg

(* (a + b) * (c + d): two adds, one mult. *)
let small_graph () =
  let b = B.create "small" in
  let a = B.input b "a" and x = B.input b "b" in
  let c = B.input b "c" and d = B.input b "d" in
  let s1 = B.op b ~label:"s1" Op.Add [ a; x ] in
  let s2 = B.op b ~label:"s2" Op.Add [ c; d ] in
  let m = B.op b ~label:"m" Op.Mult [ s1; s2 ] in
  B.output b ~label:"y" m;
  B.finish b

(* Serial chain of three additions: fodder for chained adders. *)
let add_chain_graph () =
  let b = B.create "chain3" in
  let a = B.input b "a" and x = B.input b "b" in
  let c = B.input b "c" and d = B.input b "d" in
  let s1 = B.op b ~label:"s1" Op.Add [ a; x ] in
  let s2 = B.op b ~label:"s2" Op.Add [ s1; c ] in
  let s3 = B.op b ~label:"s3" Op.Add [ s2; d ] in
  B.output b ~label:"y" s3;
  B.finish b

(* A hierarchical graph: two calls of a multiply-accumulate behavior. *)
let hier_graph () =
  let registry = Registry.create () in
  let inner =
    let b = B.create "mac" in
    let p = B.input b "p" and q = B.input b "q" and r = B.input b "r" in
    let m = B.op b ~label:"m" Op.Mult [ p; q ] in
    B.output b ~label:"y" (B.op b ~label:"s" Op.Add [ m; r ]);
    B.finish b
  in
  Registry.register registry "mac" inner;
  let b = B.create "hier" in
  let x = B.input b "x" and y = B.input b "y" and z = B.input b "z" in
  let c1 = B.call b ~label:"c1" ~behavior:"mac" ~n_out:1 [ x; y; z ] in
  let c2 = B.call b ~label:"c2" ~behavior:"mac" ~n_out:1 [ c1.(0); y; x ] in
  B.output b ~label:"out" c2.(0);
  (registry, B.finish b)

let trace ?(seed = 17) ?(length = 8) (dfg : Dfg.t) =
  Trace.generate (Rng.create seed) Trace.default_kind
    ~n_inputs:(Array.length dfg.Dfg.inputs) ~length

let relaxed_cs ?(deadline = 1000) (dfg : Dfg.t) = Sched.relaxed ~deadline dfg

(* A move-loop environment for [dfg] at [ctx ()], every family on,
   move B only with [resynth]. *)
let moves_env ?(registry = Registry.create ()) ?(objective = Hsyn_core.Cost.Area)
    ?(deadline = 1000) ?(complexes = no_complexes) ?resynth (dfg : Dfg.t) =
  let ctx = ctx () in
  let cs = Sched.relaxed ~deadline dfg in
  let sampling_ns = Float.of_int deadline *. ctx.Design.clk_ns in
  let engine = Hsyn_core.Engine.create ~ctx ~cs ~sampling_ns ~trace:(trace dfg) ~objective () in
  Hsyn_core.Moves.make_env ?resynth engine ~registry ~complexes ~max_candidates:40
    ~allow_embed:true ~allow_split:true ~allow_rewrite:true

(* A design and its neighbourhood: unit swaps of every simple instance
   and each value moved to the next register. The neighbours share the
   design's graph physically, as the candidates of a batch do, and may
   be unschedulable or infeasible. *)
let neighbourhood (lib : Library.t) (d : Design.t) =
  let swaps =
    List.concat
      (List.init (Array.length d.Design.insts) (fun i ->
           match d.Design.insts.(i) with
           | Design.Simple fu ->
               List.map
                 (fun alt -> Design.with_inst d i (Design.Simple alt))
                 (Library.alternatives lib fu)
           | Design.Module _ -> []))
  in
  let moves =
    if d.Design.n_regs < 2 then []
    else
      List.filter_map
        (fun v ->
          let r = d.Design.value_reg.(v) in
          if r < 0 then None else Some (Design.with_value_reg d v ((r + 1) mod d.Design.n_regs)))
        (List.init (Array.length d.Design.value_reg) Fun.id)
  in
  d :: (swaps @ moves)

(* Find the single instance index a node is bound to. *)
let inst_of (d : Design.t) label =
  let found = ref (-1) in
  Array.iteri
    (fun id (node : Dfg.node) -> if node.Dfg.label = label then found := d.Design.node_inst.(id))
    d.Design.dfg.Dfg.nodes;
  !found

(* Random flat DFGs for property tests: [n_ops] operations whose
   operands are drawn uniformly from earlier values (inputs, constants
   or op results); every sink value becomes an output. *)
let random_flat_graph seed ~n_inputs ~n_ops =
  let rng = Rng.create seed in
  let b = B.create (Printf.sprintf "rand%d" seed) in
  let values = ref [] in
  for i = 0 to n_inputs - 1 do
    values := B.input b (Printf.sprintf "in%d" i) :: !values
  done;
  values := B.const b (Rng.int rng 1000) :: !values;
  let consumed = Hashtbl.create 16 in
  let pick () =
    let arr = Array.of_list !values in
    arr.(Rng.int rng (Array.length arr))
  in
  let ops = [| Op.Add; Op.Sub; Op.Mult; Op.Min; Op.Max; Op.Neg |] in
  for i = 0 to n_ops - 1 do
    let op = ops.(Rng.int rng (Array.length ops)) in
    let args = List.init (Op.arity op) (fun _ -> pick ()) in
    List.iter (fun (p : Dfg.port) -> Hashtbl.replace consumed p ()) args;
    let v = B.op b ~label:(Printf.sprintf "op%d" i) op args in
    values := v :: !values
  done;
  (* every unconsumed value becomes a primary output so nothing
     dangles *)
  let sinks = List.filter (fun p -> not (Hashtbl.mem consumed p)) !values in
  List.iteri (fun i p -> B.output b ~label:(Printf.sprintf "o%d" i) p) (List.rev sinks);
  B.finish b

let node_id (dfg : Dfg.t) label =
  let found = ref (-1) in
  Array.iteri (fun id (node : Dfg.node) -> if node.Dfg.label = label then found := id) dfg.Dfg.nodes;
  if !found < 0 then failwith ("node not found: " ^ label);
  !found
