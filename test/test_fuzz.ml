(* Tests for the differential fuzzing subsystem: the generator's
   determinism and well-formedness guarantees, the shrinker's
   contract, and the runner's bookkeeping. The oracles themselves are
   exercised by the smoke campaign at the end (and continuously in
   CI through `hsyn fuzz`). *)

module Rng = Hsyn_util.Rng
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder
module Text = Hsyn_dfg.Text
module Gen = Hsyn_fuzz.Gen
module Shrink = Hsyn_fuzz.Shrink
module Oracle = Hsyn_fuzz.Oracle
module Fuzz = Hsyn_fuzz.Fuzz

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* generator *)

let test_gen_deterministic () =
  for seed = 0 to 9 do
    let a = Gen.program (Rng.create seed) in
    let b = Gen.program (Rng.create seed) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d reproduces" seed)
      (Text.to_string a) (Text.to_string b)
  done;
  let a = Text.to_string (Gen.program (Rng.create 0)) in
  let b = Text.to_string (Gen.program (Rng.create 1)) in
  checkb "different seeds differ" true (a <> b)

let test_gen_well_formed () =
  let rng = Rng.create 17 in
  for i = 0 to 99 do
    let prog = Gen.program (Rng.split rng) in
    (match Gen.well_formed prog with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "program %d ill-formed: %s" i msg);
    checkb
      (Printf.sprintf "program %d has a top graph" i)
      true
      ((Gen.top_graph prog).Dfg.name = "top")
  done

let test_gen_exercises_features () =
  (* over a modest campaign the generator must actually produce the
     constructs the oracles are supposed to stress *)
  let rng = Rng.create 5 in
  let saw_call = ref false and saw_delay = ref false and saw_variants = ref false in
  for _ = 0 to 49 do
    let prog = Gen.program (Rng.split rng) in
    let top = Gen.top_graph prog in
    if Dfg.n_calls top > 0 then saw_call := true;
    Array.iter
      (fun (n : Dfg.node) -> match n.Dfg.kind with Dfg.Delay _ -> saw_delay := true | _ -> ())
      top.Dfg.nodes;
    List.iter
      (fun b ->
        if List.length (Hsyn_dfg.Registry.variants prog.Text.registry b) > 1 then
          saw_variants := true)
      (Hsyn_dfg.Registry.behaviors prog.Text.registry)
  done;
  checkb "hierarchical calls generated" true !saw_call;
  checkb "delays generated" true !saw_delay;
  checkb "multi-variant behaviors generated" true !saw_variants

(* ------------------------------------------------------------------ *)
(* shrinker *)

let diamond () =
  (* i0 -> neg -> add(neg, i0) -> out, plus a dead mult *)
  let b = B.create "g" in
  let x = B.input b "i0" in
  let n = B.op b Op.Neg [ x ] in
  let m = B.op b Op.Mult [ n; x ] in
  let a = B.op b Op.Add [ n; m ] in
  B.output b a;
  B.finish b

let test_remove_node () =
  let g = diamond () in
  (* node ids: 0 input, 1 neg, 2 mult, 3 add, 4 output *)
  checkb "input not droppable" true (Shrink.remove_node g 0 = None);
  checkb "output not droppable" true (Shrink.remove_node g 4 = None);
  (match Shrink.remove_node g 2 with
  | None -> Alcotest.fail "mult should be droppable"
  | Some g' ->
      checki "one node fewer" (Array.length g.Dfg.nodes - 1) (Array.length g'.Dfg.nodes);
      checkb "still valid" true (Dfg.validate g' = Ok ());
      (* add's second operand rewired to mult's first input (neg) *)
      checkb "no mult left" true
        (not
           (Array.exists
              (fun (n : Dfg.node) -> n.Dfg.kind = Dfg.Op Op.Mult)
              g'.Dfg.nodes)));
  (* removing the neg rewires both consumers to i0 *)
  match Shrink.remove_node g 1 with
  | None -> Alcotest.fail "neg should be droppable"
  | Some g' -> checkb "still valid" true (Dfg.validate g' = Ok ())

let test_replace_by_operand () =
  let g = diamond () in
  let has op (g' : Dfg.t) =
    Array.exists (fun (n : Dfg.node) -> n.Dfg.kind = Dfg.Op op) g'.Dfg.nodes
  in
  (* node ids: 0 input, 1 neg, 2 mult, 3 add, 4 output *)
  checkb "input not replaceable" true (Shrink.replace_by_operand g 0 0 = None);
  checkb "operand index out of range" true (Shrink.replace_by_operand g 2 2 = None);
  checkb "negative operand index" true (Shrink.replace_by_operand g 2 (-1) = None);
  (* replacing the add by its SECOND operand keeps the mult alive —
     a rewiring remove_node's positional default (operand 0 for
     output 0) can never produce *)
  (match Shrink.replace_by_operand g 3 1 with
  | None -> Alcotest.fail "add should be replaceable by an operand"
  | Some g' ->
      checki "one node fewer" (Array.length g.Dfg.nodes - 1) (Array.length g'.Dfg.nodes);
      checkb "still valid" true (Dfg.validate g' = Ok ());
      checkb "add gone" true (not (has Op.Add g'));
      checkb "mult survives as the output" true (has Op.Mult g'));
  (* replacing the neg by its only operand rewires both consumers to i0 *)
  match Shrink.replace_by_operand g 1 0 with
  | None -> Alcotest.fail "neg should be replaceable"
  | Some g' ->
      checkb "still valid" true (Dfg.validate g' = Ok ());
      checkb "neg gone" true (not (has Op.Neg g'))

let test_shrink_converges () =
  (* find a generated program containing a Mult and shrink it under
     the predicate "still contains a Mult": the fixpoint must keep the
     witness while discarding unrelated structure *)
  let has_mult (prog : Text.program) =
    let graph_has (g : Dfg.t) =
      Array.exists (fun (n : Dfg.node) -> n.Dfg.kind = Dfg.Op Op.Mult) g.Dfg.nodes
    in
    List.exists graph_has prog.Text.graphs
    || List.exists
         (fun b -> List.exists graph_has (Hsyn_dfg.Registry.variants prog.Text.registry b))
         (Hsyn_dfg.Registry.behaviors prog.Text.registry)
  in
  let rng = Rng.create 23 in
  let rec find tries =
    if tries = 0 then Alcotest.fail "no generated program contained a Mult"
    else
      let p = Gen.program (Rng.split rng) in
      if has_mult p then p else find (tries - 1)
  in
  let prog = find 100 in
  let shrunk, stats = Shrink.shrink ~still_fails:has_mult prog in
  checkb "witness preserved" true (has_mult shrunk);
  checkb "still well-formed" true (Gen.well_formed shrunk = Ok ());
  checkb "no growth" true (stats.Shrink.size_after <= stats.Shrink.size_before);
  checki "size recorded" (Gen.size shrunk) stats.Shrink.size_after;
  (* the shrunk program must survive a text round-trip, since it is
     what gets written to the corpus *)
  let reparsed = Text.parse_string (Text.to_string shrunk) in
  checkb "repro parses back" true (Dfg.equal (Gen.top_graph shrunk) (Gen.top_graph reparsed))

let test_shrink_budget () =
  let calls = ref 0 in
  let prog = Gen.program (Rng.create 3) in
  let pred (_ : Text.program) =
    incr calls;
    true
  in
  let _, stats = Shrink.shrink ~max_checks:10 ~still_fails:pred prog in
  checkb "budget respected" true (!calls <= 10);
  checki "checks reported" !calls stats.Shrink.checks_used

(* ------------------------------------------------------------------ *)
(* runner *)

let test_validate_oracles () =
  checkb "all names known" true (Fuzz.validate_oracles Oracle.names = Ok ());
  checkb "empty ok" true (Fuzz.validate_oracles [] = Ok ());
  match Fuzz.validate_oracles [ "sched-diff"; "bogus" ] with
  | Ok () -> Alcotest.fail "bogus oracle accepted"
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      checkb "error names the offender" true (contains msg "bogus")

let test_campaign_smoke () =
  let config = { Fuzz.default_config with Fuzz.seed = 11; runs = 5 } in
  let report = Fuzz.run config in
  checki "runs recorded" 5 report.Fuzz.total_runs;
  checki "all oracles reported" (List.length Oracle.all) (List.length report.Fuzz.summaries);
  List.iter
    (fun (s : Fuzz.oracle_summary) ->
      checki (s.Fuzz.o_name ^ " pass count") 5 s.Fuzz.passed;
      checki (s.Fuzz.o_name ^ " fail count") 0 s.Fuzz.failed)
    report.Fuzz.summaries;
  checkb "no failures" true (report.Fuzz.failures = [])

let test_campaign_filter () =
  (* selecting a single oracle must not change its RNG stream: the
     filtered campaign sees the same programs and passes the same *)
  let config =
    { Fuzz.default_config with Fuzz.seed = 11; runs = 5; oracles = [ "roundtrip"; "embed" ] }
  in
  let report = Fuzz.run config in
  checki "only selected oracles reported" 2 (List.length report.Fuzz.summaries);
  List.iter
    (fun (s : Fuzz.oracle_summary) -> checki (s.Fuzz.o_name ^ " passes") 5 s.Fuzz.passed)
    report.Fuzz.summaries

(* The runner gives each oracle [Rng.derive run_rng name] after drawing
   the run's program. Keyed by the name, an oracle's draws are the same
   whatever else is registered or selected (deleting an oracle moves no
   other oracle's stream), and two names never share a stream. *)
let test_oracle_streams_by_name () =
  let streams registry =
    let run_rng = Rng.split (Rng.create 7) in
    ignore (Gen.program (Rng.split run_rng));
    let draws =
      List.map
        (fun name ->
          let r = Rng.derive run_rng name in
          (name, List.init 4 (fun _ -> Rng.int64 r)))
        registry
    in
    (draws, Rng.int64 run_rng)
  in
  let all, parent_next = streams Oracle.names in
  List.iter
    (fun registry ->
      let draws, next = streams registry in
      checkb "deriving does not advance the run's generator" true (next = parent_next);
      List.iter
        (fun (name, d) ->
          checkb (name ^ " stream independent of the others") true (d = List.assoc name all))
        draws)
    [ List.filter (( <> ) "sched-diff") Oracle.names; List.rev Oracle.names; [ "rewrite" ] ];
  let firsts = List.sort_uniq compare (List.map (fun (_, d) -> List.hd d) all) in
  checki "every oracle has its own stream" (List.length Oracle.names) (List.length firsts)

let () =
  Alcotest.run "fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "well-formed" `Quick test_gen_well_formed;
          Alcotest.test_case "exercises features" `Quick test_gen_exercises_features;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "remove_node" `Quick test_remove_node;
          Alcotest.test_case "replace_by_operand" `Quick test_replace_by_operand;
          Alcotest.test_case "converges" `Quick test_shrink_converges;
          Alcotest.test_case "budget" `Quick test_shrink_budget;
        ] );
      ( "runner",
        [
          Alcotest.test_case "validate oracles" `Quick test_validate_oracles;
          Alcotest.test_case "campaign smoke" `Quick test_campaign_smoke;
          Alcotest.test_case "campaign filter" `Quick test_campaign_filter;
          Alcotest.test_case "oracle streams by name" `Quick test_oracle_streams_by_name;
        ] );
    ]
