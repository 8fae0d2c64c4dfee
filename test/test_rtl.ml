(* Tests for the RTL design IR: value numbering, binding queries,
   functional updates, validation, compaction. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Fu = Hsyn_modlib.Fu
module Library = Hsyn_modlib.Library

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ctx = Tu.ctx ()
let lib = Library.default

(* ------------------------------------------------------------------ *)
(* Value numbering *)

let test_value_numbering_dense () =
  let g = Tu.small_graph () in
  let nv = Design.n_values g in
  checki "one value per simple node with an output" 7 nv;
  for v = 0 to nv - 1 do
    let p = Design.value_of_index g v in
    checki "roundtrip" v (Design.value_index g p)
  done

let test_value_numbering_multi_output () =
  let registry, g = Tu.hier_graph () in
  ignore registry;
  (* 3 inputs + 2 single-output calls = 5 values (output node has none) *)
  checki "values" 5 (Design.n_values g);
  Alcotest.check_raises "out of range" (Invalid_argument "Design.value_of_index") (fun () ->
      ignore (Design.value_of_index g 99))

(* ------------------------------------------------------------------ *)
(* Initial design shape *)

let test_initial_parallel () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  checki "one instance per op" 3 (Array.length d.Design.insts);
  checkb "all distinct" true
    (let bound = Array.to_list d.Design.node_inst |> List.filter (fun i -> i >= 0) in
     List.sort_uniq compare bound = List.sort compare bound);
  checkb "validates" true (Design.validate ctx d = Ok ());
  (* fastest units selected *)
  Array.iter
    (fun kind ->
      match kind with
      | Design.Simple fu -> checkb "fastest" true (fu.Fu.name = "add1" || fu.Fu.name = "mult1")
      | Design.Module _ -> Alcotest.fail "no modules expected")
    d.Design.insts

let test_initial_hier () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  checki "two module instances" 2 (Array.length d.Design.insts);
  Array.iter
    (fun kind ->
      match kind with
      | Design.Module rm -> checkb "implements mac" true (List.mem_assoc "mac" rm.Design.parts)
      | Design.Simple _ -> Alcotest.fail "expected module")
    d.Design.insts;
  checkb "validates" true (Design.validate ctx d = Ok ())

(* ------------------------------------------------------------------ *)
(* Queries *)

let test_nodes_on_and_inst_used () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i = Tu.inst_of d "s1" in
  checkb "bound" true (i >= 0);
  checki "one node" 1 (List.length (Design.nodes_on d i));
  checkb "used" true (Design.inst_used d i)

let test_values_in_reg_and_count () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  (* 4 inputs + 3 op results = 7 registers, one value each *)
  checki "regs used" 7 (Design.reg_count_used [ d ]);
  for r = 0 to d.Design.n_regs - 1 do
    checki "one value per reg" 1 (List.length (Design.values_in_reg d r))
  done

(* ------------------------------------------------------------------ *)
(* Functional updates *)

let test_with_inst () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i = Tu.inst_of d "s1" in
  let d' = Design.with_inst d i (Design.Simple (Library.find_exn lib "add2")) in
  (match d'.Design.insts.(i) with
  | Design.Simple fu -> checkb "replaced" true (fu.Fu.name = "add2")
  | Design.Module _ -> Alcotest.fail "unexpected module");
  (* original untouched *)
  match d.Design.insts.(i) with
  | Design.Simple fu -> checkb "original intact" true (fu.Fu.name = "add1")
  | Design.Module _ -> Alcotest.fail "unexpected module"

let test_with_binding_and_compact () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i1 = Tu.inst_of d "s1" and i2 = Tu.inst_of d "s2" in
  let n2 = Tu.node_id g "s2" in
  let d' = Design.with_binding d n2 i1 in
  checkb "i2 now unused" false (Design.inst_used d' i2);
  let d'' = Design.compact d' in
  checki "compact drops instance" 2 (Array.length d''.Design.insts);
  checkb "still valid" true (Design.validate ctx d'' = Ok ());
  checki "s1 and s2 share" (Tu.inst_of d'' "s1") (Tu.inst_of d'' "s2")

let test_with_value_reg_grows () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let v = 0 in
  let d' = Design.with_value_reg d v (d.Design.n_regs + 3) in
  checki "n_regs grown" (d.Design.n_regs + 4) d'.Design.n_regs

let test_add_inst_and_fresh_reg () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let d', i = Design.add_inst d (Design.Simple (Library.find_exn lib "alu1")) in
  checki "appended" (Array.length d.Design.insts) i;
  checki "one more" (Array.length d.Design.insts + 1) (Array.length d'.Design.insts);
  let d'', r = Design.fresh_reg d in
  checki "fresh reg id" d.Design.n_regs r;
  checki "count bumped" (d.Design.n_regs + 1) d''.Design.n_regs

let test_compact_renumbers_registers () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  (* move value 0 to a fresh far-away register, leaving a hole *)
  let d = Design.with_value_reg d 0 (d.Design.n_regs + 5) in
  let d' = Design.compact d in
  checki "dense registers" (Design.reg_count_used [ d' ]) d'.Design.n_regs

(* ------------------------------------------------------------------ *)
(* Validation errors *)

let test_validate_unbound_op () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let n = Tu.node_id g "m" in
  let d' = Design.with_binding d n (-1) in
  checkb "unbound rejected" true (Design.validate ctx d' <> Ok ())

let test_validate_incompatible_unit () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i = Tu.inst_of d "m" in
  let d' = Design.with_inst d i (Design.Simple (Library.find_exn lib "add1")) in
  checkb "mult on adder rejected" true (Design.validate ctx d' <> Ok ())

let test_validate_chain_shape () =
  (* two independent adds on one chain unit: not a chain -> invalid *)
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let chain = Library.find_exn lib "chained_add2" in
  let i1 = Tu.inst_of d "s1" in
  let n2 = Tu.node_id g "s2" in
  let d' = Design.with_inst d i1 (Design.Simple chain) in
  let d' = Design.with_binding d' n2 i1 in
  checkb "parallel adds are not a chain" true (Design.validate ctx d' <> Ok ());
  (* a genuine chain is accepted *)
  let gc = Tu.add_chain_graph () in
  let dc = Tu.initial ctx gc in
  let j1 = Tu.inst_of dc "s1" in
  let m2 = Tu.node_id gc "s2" in
  let dc' = Design.with_inst dc j1 (Design.Simple chain) in
  let dc' = Design.with_binding dc' m2 j1 in
  checkb "dependent adds form a chain" true (Design.validate ctx (Design.compact dc') = Ok ())

let test_validate_call_on_simple () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  let n = Tu.node_id g "c1" in
  let d', i = Design.add_inst d (Design.Simple (Library.find_exn lib "add1")) in
  let d' = Design.with_binding d' n i in
  checkb "call on simple unit rejected" true (Design.validate ctx d' <> Ok ())

(* ------------------------------------------------------------------ *)
(* Module queries *)

let test_module_part_lookup () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  match d.Design.insts.(0) with
  | Design.Module rm ->
      checkb "part exists" true (Design.module_part rm "mac" == List.assoc "mac" rm.Design.parts);
      Alcotest.check (Alcotest.list Alcotest.string) "behaviors" [ "mac" ]
        (Design.module_behaviors rm);
      Alcotest.check_raises "missing behavior" Not_found (fun () ->
          ignore (Design.module_part rm "nosuch"))
  | Design.Simple _ -> Alcotest.fail "expected module"

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

(* The fingerprint keys the cost caches, the disk cache and the
   checkpoints, so its value is part of the file formats: these pins
   fail on any change to the FNV chain. test1's initial design has
   module instances (the recursive module branch); paulin's is flat. *)
let test_fingerprint_pinned () =
  let module Suite = Hsyn_benchmarks.Suite in
  let fp (b : Suite.t) =
    Printf.sprintf "%016Lx" (Design.fingerprint (Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg))
  in
  Alcotest.check Alcotest.string "test1 initial design" "ece9b6cd20346f77" (fp (Suite.test1 ()));
  Alcotest.check Alcotest.string "paulin initial design" "01b4e4ffdee21640" (fp (Suite.paulin ()))

(* The chain's state stays unboxed: a fingerprint allocates its 8-byte
   state buffer and its boxed [int64] result (3 words each) and nothing
   per mixed value. A design with module instances takes the recursive
   path too. *)
let test_fingerprint_allocation () =
  let module Suite = Hsyn_benchmarks.Suite in
  let b = Suite.test1 () in
  let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
  ignore (Design.fingerprint d);
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Design.fingerprint d))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.check (Alcotest.float 0.) "minor words of 1000 fingerprints" (6. *. Float.of_int calls)
    words

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rtl"
    [
      ( "values",
        [
          tc "dense numbering" test_value_numbering_dense;
          tc "multi-output calls" test_value_numbering_multi_output;
        ] );
      ( "initial",
        [ tc "fully parallel" test_initial_parallel; tc "hierarchical" test_initial_hier ] );
      ( "queries",
        [
          tc "nodes_on / inst_used" test_nodes_on_and_inst_used;
          tc "values_in_reg" test_values_in_reg_and_count;
          tc "module part lookup" test_module_part_lookup;
        ] );
      ( "updates",
        [
          tc "with_inst" test_with_inst;
          tc "with_binding + compact" test_with_binding_and_compact;
          tc "with_value_reg grows" test_with_value_reg_grows;
          tc "add_inst / fresh_reg" test_add_inst_and_fresh_reg;
          tc "compact renumbers registers" test_compact_renumbers_registers;
        ] );
      ( "validate",
        [
          tc "unbound op" test_validate_unbound_op;
          tc "incompatible unit" test_validate_incompatible_unit;
          tc "chain shape" test_validate_chain_shape;
          tc "call on simple" test_validate_call_on_simple;
        ] );
      ("fingerprint", [ tc "pinned values" test_fingerprint_pinned; tc "allocates only its buffer and result" test_fingerprint_allocation ]);
    ]
