(* Tests for the hierarchical DFG IR: builder, validation, topological
   order, registry, flattening. *)

module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Registry = Hsyn_dfg.Registry
module Flatten = Hsyn_dfg.Flatten
module B = Hsyn_dfg.Dfg.Builder

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* a + b*c with one output *)
let simple_graph () =
  let b = B.create "g" in
  let a = B.input b "a" and x = B.input b "x" and c = B.input b "c" in
  let m = B.op b ~label:"m" Op.Mult [ x; c ] in
  let s = B.op b ~label:"s" Op.Add [ a; m ] in
  B.output b ~label:"y" s;
  B.finish b

(* ------------------------------------------------------------------ *)
(* Op *)

let test_op_arity () =
  checki "add" 2 (Op.arity Op.Add);
  checki "neg" 1 (Op.arity Op.Neg)

let test_op_name_roundtrip () =
  List.iter
    (fun op ->
      match Op.of_name (Op.name op) with
      | Some op' -> checkb "roundtrip" true (op = op')
      | None -> Alcotest.fail "missing name")
    Op.all

let test_op_eval_semantics () =
  checki "add" 7 (Op.eval Op.Add [ 3; 4 ]);
  checki "sub" 0xffff (Op.eval Op.Sub [ 3; 4 ]);
  checki "mult" 12 (Op.eval Op.Mult [ 3; 4 ]);
  checki "neg" 0xfffd (Op.eval Op.Neg [ 3 ]);
  checki "abs of negative" 3 (Op.eval Op.Abs [ Op.eval Op.Neg [ 3 ] ]);
  checki "min" 3 (Op.eval Op.Min [ 3; 4 ]);
  checki "max" 4 (Op.eval Op.Max [ 3; 4 ]);
  checki "lt true" 1 (Op.eval Op.Lt [ 3; 4 ]);
  checki "lt false" 0 (Op.eval Op.Lt [ 4; 3 ]);
  checki "lsh" 12 (Op.eval Op.Lsh [ 3; 2 ]);
  checki "rsh" 1 (Op.eval Op.Rsh [ 6; 2 ])

let test_op_eval_wraps () =
  (* 16-bit two's complement wraparound *)
  checki "wrap add" 0 (Op.eval Op.Add [ 0x8000; 0x8000 ]);
  checkb "wrap mult stays in word" true (Op.eval Op.Mult [ 0x7fff; 0x7fff ] land lnot 0xffff = 0)

let test_op_eval_shift_boundaries () =
  (* the shift distance is Bits.shift_amount: the low 4 bits of the
     TRUNCATED amount operand. One definition shared by Op.eval (and
     through it Sim and the power model) and rewrite legality — these
     tests pin the boundary behavior all of them must agree on. *)
  let module Bits = Hsyn_util.Bits in
  checki "shift_amount in range is itself" 5 (Bits.shift_amount 5);
  checki "shift_amount 15" 15 (Bits.shift_amount 15);
  checki "shift_amount 16 wraps to 0" 0 (Bits.shift_amount 16);
  checki "shift_amount 17 wraps to 1" 1 (Bits.shift_amount 17);
  checki "shift_amount -1 is 15" 15 (Bits.shift_amount (-1));
  checki "shift_amount truncates first" 5 (Bits.shift_amount 0x12345);
  (* exhaustive against the reference semantics, including amounts at
     and past the word width and negative amounts *)
  List.iter
    (fun a ->
      List.iter
        (fun k ->
          let d = Bits.shift_amount k in
          let s = Bits.to_signed (Bits.truncate a) in
          checki
            (Printf.sprintf "lsh 0x%04x by %d" (Bits.truncate a) k)
            ((s lsl d) land 0xffff)
            (Op.eval Op.Lsh [ a; k ]);
          checki
            (Printf.sprintf "rsh 0x%04x by %d" (Bits.truncate a) k)
            ((s asr d) land 0xffff)
            (Op.eval Op.Rsh [ a; k ]))
        [ 0; 1; 2; 14; 15; 16; 17; 31; 32; -1; -2; 0x8000; 0xffff ])
    [ 0; 1; 3; 0x7fff; 0x8000; 0xabcd; 0xffff ];
  (* spot checks of the interesting cells of that matrix *)
  checki "lsh by 16 is identity (amount wraps to 0)" 3 (Op.eval Op.Lsh [ 3; 16 ]);
  checki "lsh by 17 is lsh by 1" 6 (Op.eval Op.Lsh [ 3; 17 ]);
  checki "lsh by -1 is lsh by 15" 0x8000 (Op.eval Op.Lsh [ 1; -1 ]);
  checki "rsh is arithmetic: sign extends" 0xc000 (Op.eval Op.Rsh [ 0x8000; 1 ]);
  checki "rsh of negative by 15 saturates to -1" 0xffff (Op.eval Op.Rsh [ 0x8000; 15 ]);
  checki "rsh of positive by 15 is 0" 0 (Op.eval Op.Rsh [ 0x7fff; 15 ])

let test_op_eval_min_int () =
  (* min_int (0x8000 = -32768) has no 16-bit positive counterpart:
     Neg and Abs both wrap back to it, like hardware two's complement *)
  checki "neg of min_int is min_int" 0x8000 (Op.eval Op.Neg [ 0x8000 ]);
  checki "abs of min_int is min_int" 0x8000 (Op.eval Op.Abs [ 0x8000 ]);
  checki "abs of -1" 1 (Op.eval Op.Abs [ 0xffff ]);
  checki "abs of max positive" 0x7fff (Op.eval Op.Abs [ 0x7fff ]);
  checki "min is signed" 0x8000 (Op.eval Op.Min [ 0x8000; 0x7fff ]);
  checki "max is signed" 0x7fff (Op.eval Op.Max [ 0x8000; 0x7fff ])

let test_op_eval_arity_mismatch () =
  Alcotest.check_raises "too few" (Invalid_argument "Op.eval: arity mismatch for add") (fun () ->
      ignore (Op.eval Op.Add [ 1 ]))

let test_op_commutative () =
  checkb "add" true (Op.commutative Op.Add);
  checkb "sub" false (Op.commutative Op.Sub)

(* ------------------------------------------------------------------ *)
(* Builder + validation *)

let test_builder_basic () =
  let g = simple_graph () in
  checki "nodes" 6 (Array.length g.Dfg.nodes);
  checki "inputs" 3 (Array.length g.Dfg.inputs);
  checki "outputs" 1 (Array.length g.Dfg.outputs);
  checki "ops" 2 (Dfg.n_operations g);
  checki "calls" 0 (Dfg.n_calls g);
  checkb "valid" true (Dfg.validate g = Ok ())

let test_builder_arity_check () =
  let b = B.create "bad" in
  let a = B.input b "a" in
  Alcotest.check_raises "bad arity" (Invalid_argument "Builder.op: add expects 2 operands")
    (fun () -> ignore (B.op b Op.Add [ a ]))

let test_builder_delay_cycle () =
  (* y(t) = y(t-1) + x : legal recurrence through a delay *)
  let b = B.create "acc" in
  let x = B.input b "x" in
  let prev, feed = B.delay_feed b () in
  let s = B.op b Op.Add [ x; prev ] in
  feed s;
  B.output b s;
  let g = B.finish b in
  checkb "valid recurrence" true (Dfg.validate g = Ok ());
  checki "topo covers all" (Array.length g.Dfg.nodes) (Array.length (Dfg.topo_order g))

let test_builder_unfed_delay () =
  let b = B.create "bad" in
  let _, _feed = B.delay_feed b () in
  Alcotest.check_raises "unfed" (Invalid_argument "Builder.finish: unfed delay_feed") (fun () ->
      ignore (B.finish b))

let test_builder_double_feed () =
  let b = B.create "bad" in
  let x = B.input b "x" in
  let _, feed = B.delay_feed b () in
  feed x;
  Alcotest.check_raises "double feed" (Invalid_argument "Builder.delay_feed: fed twice")
    (fun () -> feed x)

let test_topo_respects_deps () =
  let g = simple_graph () in
  let order = Dfg.topo_order g in
  let position = Array.make (Array.length g.Dfg.nodes) 0 in
  Array.iteri (fun idx id -> position.(id) <- idx) order;
  Array.iteri
    (fun dst node ->
      Array.iter
        (fun ({ Dfg.node = src; _ } : Dfg.port) ->
          match g.Dfg.nodes.(src).Dfg.kind with
          | Dfg.Delay _ -> ()
          | _ -> checkb "src before dst" true (position.(src) < position.(dst)))
        node.Dfg.ins)
    g.Dfg.nodes

let test_called_behaviors_and_histogram () =
  let b = B.create "h" in
  let x = B.input b "x" and y = B.input b "y" in
  let c1 = B.call b ~behavior:"f" ~n_out:1 [ x; y ] in
  let c2 = B.call b ~behavior:"g" ~n_out:1 [ c1.(0); y ] in
  let _ = B.call b ~behavior:"f" ~n_out:1 [ c2.(0); x ] in
  let s = B.op b Op.Add [ c1.(0); c2.(0) ] in
  B.output b s;
  let g = B.finish b in
  Alcotest.check (Alcotest.list Alcotest.string) "behaviors in first-use order" [ "f"; "g" ]
    (Dfg.called_behaviors g);
  checki "calls" 3 (Dfg.n_calls g);
  match Dfg.op_histogram g with
  | [ (Op.Add, 1) ] -> ()
  | _ -> Alcotest.fail "unexpected histogram"

let test_equal () =
  let a = simple_graph () and b = simple_graph () in
  checkb "structurally equal" true (Dfg.equal a b)

(* ------------------------------------------------------------------ *)
(* Registry *)

let variant_named name =
  let b = B.create name in
  let x = B.input b "x" and y = B.input b "y" in
  B.output b (B.op b Op.Add [ x; y ]);
  B.finish b

let test_registry_register_and_lookup () =
  let r = Registry.create () in
  Registry.register r "sum" (variant_named "v1");
  Registry.register r "sum" (variant_named "v2");
  checki "two variants" 2 (List.length (Registry.variants r "sum"));
  checkb "default is first" true ((Registry.default_variant r "sum").Dfg.name = "v1");
  checkb "by name" true ((Registry.variant r "sum" "v2").Dfg.name = "v2");
  checkb "mem" true (Registry.mem r "sum");
  checkb "interface" true (Registry.interface r "sum" = (2, 1))

let test_registry_rejects_interface_mismatch () =
  let r = Registry.create () in
  Registry.register r "sum" (variant_named "v1");
  let bad =
    let b = B.create "v3" in
    let x = B.input b "x" in
    B.output b (B.op b Op.Neg [ x ]);
    B.finish b
  in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Registry.register: variant v3 of sum has mismatched interface") (fun () ->
      Registry.register r "sum" bad)

let test_registry_rejects_duplicate_variant () =
  let r = Registry.create () in
  Registry.register r "sum" (variant_named "v1");
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Registry.register: duplicate variant name v1 for sum") (fun () ->
      Registry.register r "sum" (variant_named "v1"))

let test_registry_check_calls () =
  let r = Registry.create () in
  Registry.register r "sum" (variant_named "v1");
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" in
  let c = B.call b ~behavior:"sum" ~n_out:1 [ x; y ] in
  B.output b c.(0);
  let g = B.finish b in
  checkb "calls ok" true (Registry.check_calls r g = Ok ());
  let b2 = B.create "top2" in
  let x = B.input b2 "x" and y = B.input b2 "y" in
  let c = B.call b2 ~behavior:"nosuch" ~n_out:1 [ x; y ] in
  B.output b2 c.(0);
  let g2 = B.finish b2 in
  checkb "unknown behavior flagged" true (Registry.check_calls r g2 <> Ok ())

(* ------------------------------------------------------------------ *)
(* Flatten *)

let hier_example () =
  let r = Registry.create () in
  let inner =
    let b = B.create "madd" in
    let p = B.input b "p" and q = B.input b "q" in
    B.output b (B.op b Op.Mult [ p; q ]);
    B.finish b
  in
  Registry.register r "madd" inner;
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" in
  let c1 = B.call b ~label:"c1" ~behavior:"madd" ~n_out:1 [ x; y ] in
  let c2 = B.call b ~label:"c2" ~behavior:"madd" ~n_out:1 [ c1.(0); y ] in
  B.output b (B.op b Op.Add [ c1.(0); c2.(0) ]);
  (r, B.finish b)

let test_flatten_removes_calls () =
  let r, g = hier_example () in
  let flat = Flatten.flatten r g in
  checkb "flat" true (Flatten.is_flat flat);
  checki "ops inlined" 3 (Dfg.n_operations flat);
  checki "interface preserved (in)" (Array.length g.Dfg.inputs) (Array.length flat.Dfg.inputs);
  checki "interface preserved (out)" (Array.length g.Dfg.outputs) (Array.length flat.Dfg.outputs);
  checkb "validates" true (Dfg.validate flat = Ok ())

let test_flatten_total_operations () =
  let r, g = hier_example () in
  checki "count without building" 3 (Flatten.total_operations r g)

let test_flatten_with_delays () =
  let r = Registry.create () in
  let inner =
    let b = B.create "inc" in
    let p = B.input b "p" in
    let one = B.const b 1 in
    B.output b (B.op b Op.Add [ p; one ]);
    B.finish b
  in
  Registry.register r "inc" inner;
  let b = B.create "loop" in
  let x = B.input b "x" in
  let prev, feed = B.delay_feed b () in
  let c = B.call b ~behavior:"inc" ~n_out:1 [ prev ] in
  let s = B.op b Op.Add [ x; c.(0) ] in
  feed s;
  B.output b s;
  let g = B.finish b in
  let flat = Flatten.flatten r g in
  checkb "valid" true (Dfg.validate flat = Ok ());
  checkb "flat" true (Flatten.is_flat flat)

let test_flatten_choose_variant () =
  let r = Registry.create () in
  Registry.register r "sum" (variant_named "v1");
  let two_op =
    let b = B.create "v2" in
    let x = B.input b "x" and y = B.input b "y" in
    let n = B.op b Op.Neg [ y ] in
    B.output b (B.op b Op.Sub [ x; n ]);
    B.finish b
  in
  Registry.register r "sum" two_op;
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" in
  let c = B.call b ~behavior:"sum" ~n_out:1 [ x; y ] in
  B.output b c.(0);
  let g = B.finish b in
  let f1 = Flatten.flatten r g in
  let f2 = Flatten.flatten ~choose:(fun _ -> two_op) r g in
  checki "default variant: 1 op" 1 (Dfg.n_operations f1);
  checki "chosen variant: 2 ops" 2 (Dfg.n_operations f2)

let test_registry_detects_recursion () =
  (* behavior f calls g which calls f: check_calls must flag the cycle
     rather than loop forever *)
  let r = Registry.create () in
  let make_caller name callee =
    let b = B.create name in
    let x = B.input b "x" and y = B.input b "y" in
    let c = B.call b ~behavior:callee ~n_out:1 [ x; y ] in
    B.output b c.(0);
    B.finish b
  in
  Registry.register r "f" (make_caller "f_v" "g");
  Registry.register r "g" (make_caller "g_v" "f");
  let top = make_caller "top" "f" in
  checkb "recursion flagged" true (Registry.check_calls r top <> Ok ())

let test_flatten_three_levels () =
  (* three levels of nesting flatten to the expected operation count *)
  let r = Registry.create () in
  let leaf =
    let b = B.create "leaf" in
    let x = B.input b "x" and y = B.input b "y" in
    B.output b (B.op b Op.Mult [ x; y ]);
    B.finish b
  in
  Registry.register r "leaf" leaf;
  let mid =
    let b = B.create "mid" in
    let x = B.input b "x" and y = B.input b "y" in
    let c1 = B.call b ~behavior:"leaf" ~n_out:1 [ x; y ] in
    let c2 = B.call b ~behavior:"leaf" ~n_out:1 [ y; x ] in
    B.output b (B.op b Op.Add [ c1.(0); c2.(0) ]);
    B.finish b
  in
  Registry.register r "mid" mid;
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" in
  let c1 = B.call b ~behavior:"mid" ~n_out:1 [ x; y ] in
  let c2 = B.call b ~behavior:"mid" ~n_out:1 [ c1.(0); y ] in
  B.output b (B.op b Op.Sub [ c1.(0); c2.(0) ]);
  let top = B.finish b in
  let flat = Flatten.flatten r top in
  checkb "flat" true (Flatten.is_flat flat);
  (* 2 mids × (2 leaves × 1 mult + 1 add) + 1 sub = 7 *)
  checki "ops" 7 (Dfg.n_operations flat);
  checki "counted without building" 7 (Flatten.total_operations r top)

(* ------------------------------------------------------------------ *)
(* Properties on random graphs *)

let prop_random_graphs_validate =
  QCheck.Test.make ~name:"random flat graphs validate" ~count:100 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:4 ~n_ops:15 in
      Dfg.validate g = Ok ())

let prop_topo_covers_all_nodes =
  QCheck.Test.make ~name:"topological order covers every node" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:4 ~n_ops:15 in
      let order = Dfg.topo_order g in
      Array.length order = Array.length g.Dfg.nodes
      && List.sort_uniq compare (Array.to_list order)
         = List.init (Array.length g.Dfg.nodes) Fun.id)

let prop_text_roundtrip_random =
  QCheck.Test.make ~name:"textual format roundtrips random graphs" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:10 in
      let buf = Buffer.create 256 in
      Hsyn_dfg.Text.print_dfg buf g;
      let prog = Hsyn_dfg.Text.parse_string (Buffer.contents buf) in
      match prog.Hsyn_dfg.Text.graphs with [ g' ] -> Dfg.equal g g' | _ -> false)

(* ------------------------------------------------------------------ *)
(* The index, rebuilt from the nodes alone: every table {!Dfg.index}
   holds, on every graph of the suite (variants, top graphs and their
   flattenings) and of 200 generated programs *)

(* The Kahn sort [Dfg.topo_order] ran on every call before the order
   became part of the index: dependents kept in lists, sorted at each
   pop. *)
let kahn_order (g : Dfg.t) =
  let n = Array.length g.Dfg.nodes in
  let dep_edges dst =
    Array.to_list g.Dfg.nodes.(dst).Dfg.ins
    |> List.filter_map (fun ({ Dfg.node = src; _ } : Dfg.port) ->
           match g.Dfg.nodes.(src).Dfg.kind with Dfg.Delay _ -> None | _ -> Some src)
  in
  let indeg = Array.init n (fun dst -> List.length (dep_edges dst)) in
  let out_edges = Array.make n [] in
  for dst = 0 to n - 1 do
    List.iter (fun src -> out_edges.(src) <- dst :: out_edges.(src)) (dep_edges dst)
  done;
  let order = ref [] and ready = Queue.create () in
  for id = 0 to n - 1 do
    if indeg.(id) = 0 then Queue.add id ready
  done;
  while not (Queue.is_empty ready) do
    let id = Queue.pop ready in
    order := id :: !order;
    List.iter
      (fun dst ->
        indeg.(dst) <- indeg.(dst) - 1;
        if indeg.(dst) = 0 then Queue.add dst ready)
      (List.sort compare out_edges.(id))
  done;
  Array.of_list (List.rev !order)

let check_index (g : Dfg.t) =
  let ix = g.Dfg.index and nodes = Array.to_list g.Dfg.nodes in
  let ints what = Alcotest.(check (array int)) (g.Dfg.name ^ ": " ^ what) in
  let is_kind f id = f g.Dfg.nodes.(id).Dfg.kind in
  (* values are the output ports, in node order *)
  let ports id (node : Dfg.node) = List.init node.Dfg.n_out (fun out -> (id, out)) in
  let values = Array.of_list (List.concat (List.mapi ports nodes)) in
  let value_of ({ Dfg.node; out } : Dfg.port) =
    let rec find v = if values.(v) = (node, out) then v else find (v + 1) in
    find 0
  in
  let prefix_sums counts =
    Array.of_list (List.rev (List.fold_left (fun acc c -> (List.hd acc + c) :: acc) [ 0 ] counts))
  in
  let per_node f = List.map (fun (node : Dfg.node) -> f node) nodes in
  ints "value offsets" (prefix_sums (per_node (fun node -> node.Dfg.n_out))) ix.Dfg.value_off;
  ints "producers" (Array.map fst values) ix.Dfg.value_node;
  ints "input offsets"
    (prefix_sums (per_node (fun node -> Array.length node.Dfg.ins)))
    ix.Dfg.in_off;
  ints "input values"
    (Array.concat (per_node (fun node -> Array.map value_of node.Dfg.ins)))
    ix.Dfg.in_val;
  (* each value's readers: one entry per reading port, by node then
     port, flagged when an Output or Delay reads it *)
  let at_avail_kind = function Dfg.Output | Dfg.Delay _ -> true | _ -> false in
  let at_avail = is_kind at_avail_kind in
  let reads v =
    List.concat
      (List.mapi
         (fun dst (node : Dfg.node) ->
           List.filter_map
             (fun p -> if value_of p = v then Some (dst, at_avail dst) else None)
             (Array.to_list node.Dfg.ins))
         nodes)
  in
  let n_values = Array.length values in
  ints "reader offsets"
    (prefix_sums (List.init n_values (fun v -> List.length (reads v))))
    ix.Dfg.reader_off;
  for v = 0 to n_values - 1 do
    let lo = ix.Dfg.reader_off.(v) in
    Alcotest.(check (list (pair int bool)))
      (Printf.sprintf "%s: readers of value %d" g.Dfg.name v)
      (reads v)
      (List.init
         (ix.Dfg.reader_off.(v + 1) - lo)
         (fun k -> (ix.Dfg.readers.(lo + k), ix.Dfg.reader_at_avail.(lo + k))))
  done;
  let order = kahn_order g in
  ints "order" order (Dfg.topo_order g);
  let position = Array.make (Array.length order) 0 in
  Array.iteri (fun k id -> position.(id) <- k) order;
  let by_position v = (position.(fst values.(v)), v) in
  ints "values in topological order"
    (Array.of_list
       (List.sort (fun a b -> compare (by_position a) (by_position b)) (List.init n_values Fun.id)))
    ix.Dfg.topo_values;
  let ids f = List.filter (is_kind f) (List.init (List.length nodes) Fun.id) in
  let first_in id = value_of g.Dfg.nodes.(id).Dfg.ins.(0) in
  let own id = value_of { Dfg.node = id; out = 0 } in
  ints "exec nodes"
    (Array.of_list (ids (function Dfg.Op _ | Dfg.Call _ -> true | _ -> false)))
    ix.Dfg.exec_nodes;
  ints "fixed values"
    (Array.of_list (List.map own (ids (function Dfg.Const _ | Dfg.Delay _ -> true | _ -> false))))
    ix.Dfg.fixed_values;
  ints "sink values" (Array.of_list (List.map first_in (ids at_avail_kind))) ix.Dfg.sink_values;
  ints "output values" (Array.map first_in g.Dfg.outputs) ix.Dfg.output_values;
  let st = Hsyn_util.Fnv.create () in
  Dfg.hash_into st g;
  checkb (g.Dfg.name ^ ": hash") true (Int64.equal (Hsyn_util.Fnv.load st 0) ix.Dfg.hash)

(* the variants of every behavior, the top graph and its flattening *)
let program_graphs registry top =
  List.concat_map (Registry.variants registry) (Registry.behaviors registry)
  @ [ top; Flatten.flatten registry top ]

let test_index_suite () =
  let module Suite = Hsyn_benchmarks.Suite in
  List.iter
    (fun (b : Suite.t) -> List.iter check_index (program_graphs b.Suite.registry b.Suite.dfg))
    (Suite.all ())

let test_index_generated () =
  let module Gen = Hsyn_fuzz.Gen in
  for seed = 0 to 199 do
    let prog = Gen.program (Hsyn_util.Rng.create seed) in
    List.iter check_index (program_graphs prog.Hsyn_dfg.Text.registry (Gen.top_graph prog))
  done

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dfg"
    [
      ( "op",
        [
          tc "arity" test_op_arity;
          tc "name roundtrip" test_op_name_roundtrip;
          tc "eval semantics" test_op_eval_semantics;
          tc "eval wraps" test_op_eval_wraps;
          tc "eval shift boundaries" test_op_eval_shift_boundaries;
          tc "eval min_int" test_op_eval_min_int;
          tc "eval arity mismatch" test_op_eval_arity_mismatch;
          tc "commutative" test_op_commutative;
        ] );
      ( "builder",
        [
          tc "basic" test_builder_basic;
          tc "arity check" test_builder_arity_check;
          tc "delay cycle" test_builder_delay_cycle;
          tc "unfed delay" test_builder_unfed_delay;
          tc "double feed" test_builder_double_feed;
          tc "topo respects deps" test_topo_respects_deps;
          tc "called behaviors / histogram" test_called_behaviors_and_histogram;
          tc "equal" test_equal;
        ] );
      ( "registry",
        [
          tc "register/lookup" test_registry_register_and_lookup;
          tc "interface mismatch" test_registry_rejects_interface_mismatch;
          tc "duplicate variant" test_registry_rejects_duplicate_variant;
          tc "check_calls" test_registry_check_calls;
        ] );
      ( "flatten",
        [
          tc "removes calls" test_flatten_removes_calls;
          tc "total operations" test_flatten_total_operations;
          tc "with delays" test_flatten_with_delays;
          tc "choose variant" test_flatten_choose_variant;
          tc "recursion detected" test_registry_detects_recursion;
          tc "three levels" test_flatten_three_levels;
        ] );
      ( "index",
        [
          tc "suite graphs" test_index_suite;
          tc "200 generated programs" test_index_generated;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_graphs_validate;
          QCheck_alcotest.to_alcotest prop_topo_covers_all_nodes;
          QCheck_alcotest.to_alcotest prop_text_roundtrip_random;
        ] );
    ]
