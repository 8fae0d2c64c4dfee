(* Tests for the algebraic rewriting rules behind move family E: each
   rule's structural effect on small graphs; bitwise equivalence of
   every candidate to its original graph through simulation (the
   property the move layer's soundness rests on); and the family's
   payoff in a full synthesis. *)

module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder
module Rewrite = Hsyn_dfg.Rewrite
module Sim = Hsyn_eval.Sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let count op (g : Dfg.t) =
  Array.fold_left
    (fun acc (n : Dfg.node) -> if n.Dfg.kind = Dfg.Op op then acc + 1 else acc)
    0 g.Dfg.nodes

(* bitwise equivalence over a shared pseudo-random trace; the graphs
   under test are flat (no calls), so the direct simulator applies *)
let equiv g g' =
  let tr = Tu.trace ~length:16 g in
  Sim.run_flat g tr = Sim.run_flat g' tr

let check_all_candidates name g =
  List.iter
    (fun (desc, g') ->
      checkb (name ^ ": " ^ desc ^ " valid") true (Dfg.validate g' = Ok ());
      checkb (name ^ ": " ^ desc ^ " equivalent") true (equiv g g'))
    (Rewrite.candidates g)

(* ------------------------------------------------------------------ *)

let mult_by_const c =
  let b = B.create "m" in
  let x = B.input b "x" in
  let k = B.const b ~label:"k" c in
  let m = B.op b ~label:"m" Op.Mult [ x; k ] in
  B.output b ~label:"y" m;
  B.finish b

let shift_by_const op c =
  let b = B.create "s" in
  let x = B.input b "x" in
  let k = B.const b ~label:"k" c in
  let s = B.op b ~label:"s" op [ x; k ] in
  B.output b ~label:"y" s;
  B.finish b

let test_strength_reduce_pow2 () =
  List.iter
    (fun c ->
      let g = mult_by_const c in
      match Rewrite.strength_reduce g with
      | [ (desc, g') ] ->
          checks "kind" "sr" (Rewrite.kind_of_description desc);
          checki (Printf.sprintf "mult by %d gone" c) 0 (count Op.Mult g');
          checki (Printf.sprintf "lsh for %d appeared" c) 1 (count Op.Lsh g');
          checkb (Printf.sprintf "mult by %d equivalent" c) true (equiv g g')
      | l -> Alcotest.failf "mult by %d: expected 1 candidate, got %d" c (List.length l))
    (* 0x8000 = 2^15 is sound too: x * -2^15 = x * 2^15 (mod 2^16) *)
    [ 2; 4; 8; 0x4000; 0x8000 ]

let test_strength_reduce_trivial () =
  (* x*1 collapses to x (no op nodes at all), x*0 to the constant *)
  let g1 = mult_by_const 1 in
  (match Rewrite.strength_reduce g1 with
  | [ (_, g') ] ->
      checki "mult by 1 erased" 0 (count Op.Mult g' + count Op.Lsh g');
      checkb "mult by 1 equivalent" true (equiv g1 g')
  | l -> Alcotest.failf "mult by 1: expected 1 candidate, got %d" (List.length l));
  let g0 = mult_by_const 0 in
  match Rewrite.strength_reduce g0 with
  | [ (_, g') ] ->
      checki "mult by 0 erased" 0 (count Op.Mult g');
      checkb "mult by 0 equivalent" true (equiv g0 g')
  | l -> Alcotest.failf "mult by 0: expected 1 candidate, got %d" (List.length l)

let test_strength_reduce_non_pow2 () =
  List.iter
    (fun c ->
      let g = mult_by_const c in
      checki (Printf.sprintf "mult by %d untouched" c) 0
        (List.length (Rewrite.strength_reduce g)))
    [ 3; 5; 0x7fff; 0xffff ]

let test_shift_canonicalization () =
  (* amount wrapping to 0 erases the shift entirely *)
  List.iter
    (fun (op, name) ->
      let g = shift_by_const op 16 in
      match Rewrite.strength_reduce g with
      | [ (_, g') ] ->
          checki (name ^ " by 16 erased") 0 (count op g');
          checkb (name ^ " by 16 equivalent") true (equiv g g')
      | l -> Alcotest.failf "%s by 16: expected 1 candidate, got %d" name (List.length l))
    [ (Op.Lsh, "lsh"); (Op.Rsh, "rsh") ];
  (* out-of-range amount is canonicalized to its low 4 bits *)
  let g = shift_by_const Op.Lsh 17 in
  (match Rewrite.strength_reduce g with
  | [ (_, g') ] ->
      checkb "canonical const 1 present" true
        (Array.exists (fun (n : Dfg.node) -> n.Dfg.kind = Dfg.Const 1) g'.Dfg.nodes);
      checkb "lsh by 17 equivalent" true (equiv g g')
  | l -> Alcotest.failf "lsh by 17: expected 1 candidate, got %d" (List.length l));
  (* in-range shifts are already canonical: nothing proposed *)
  checki "lsh by 3 untouched" 0 (List.length (Rewrite.strength_reduce (shift_by_const Op.Lsh 3)))

let test_rebalance_chain () =
  let g = Tu.add_chain_graph () in
  match Rewrite.rebalance g with
  | [ (desc, g') ] ->
      checks "kind" "rebal" (Rewrite.kind_of_description desc);
      checki "op count unchanged" (count Op.Add g) (count Op.Add g');
      checkb "equivalent" true (equiv g g')
  | l -> Alcotest.failf "chain3: expected 1 rebalance candidate, got %d" (List.length l)

let test_rebalance_skips_balanced () =
  (* small_graph is (a+b)*(c+d): already balanced, nothing to do *)
  checki "balanced untouched" 0 (List.length (Rewrite.rebalance (Tu.small_graph ())))

let test_cse () =
  (* two structurally identical adds, the second with swapped operands
     (add commutes, so it still counts as a duplicate) *)
  let b = B.create "dup" in
  let x = B.input b "x" and y = B.input b "y" in
  let s1 = B.op b ~label:"s1" Op.Add [ x; y ] in
  let s2 = B.op b ~label:"s2" Op.Add [ y; x ] in
  let m = B.op b ~label:"m" Op.Mult [ s1; s2 ] in
  B.output b ~label:"o" m;
  let g = B.finish b in
  match Rewrite.cse g with
  | [ (desc, g') ] ->
      checks "kind" "cse" (Rewrite.kind_of_description desc);
      checki "one add fewer" (count Op.Add g - 1) (count Op.Add g');
      checkb "equivalent" true (equiv g g')
  | l -> Alcotest.failf "dup: expected 1 cse candidate, got %d" (List.length l)

let test_cse_distinct_untouched () =
  (* (a+b)*(c+d): the adds share an op but not operands *)
  checki "distinct subexpressions kept" 0 (List.length (Rewrite.cse (Tu.small_graph ())))

let test_all_candidates_sound () =
  (* the umbrella property on every fixture: whatever candidates come
     out, each is valid and bitwise-equivalent *)
  check_all_candidates "chain" (Tu.add_chain_graph ());
  check_all_candidates "small" (Tu.small_graph ());
  check_all_candidates "m8" (mult_by_const 8);
  check_all_candidates "m0x8000" (mult_by_const 0x8000);
  check_all_candidates "lsh17" (shift_by_const Op.Lsh 17)

let test_kind_of_description () =
  checks "sr" "sr" (Rewrite.kind_of_description "sr:m");
  checks "rebal" "rebal" (Rewrite.kind_of_description "rebal:s3");
  checks "cse" "cse" (Rewrite.kind_of_description "cse:s2");
  checks "unknown kind" "other" (Rewrite.kind_of_description "frobnicate:x");
  checks "no separator" "other" (Rewrite.kind_of_description "sr");
  checkb "kinds table" true (Rewrite.kinds = [ "sr"; "rebal"; "cse" ])

(* Family E earns its keep end to end: on avenhaus_cascade, whose
   datapath has mult-by-power-of-two taps and long add chains, power
   synthesis at L.F. 2.2 (the reduced effort of the bench harness's
   --quick run) ends strictly better with rewriting than without. *)
let test_family_e_improves_avenhaus () =
  let module S = Hsyn_core.Synthesize in
  let module Clib = Hsyn_core.Clib in
  let module Cost = Hsyn_core.Cost in
  let module Suite = Hsyn_benchmarks.Suite in
  let b = Suite.avenhaus_cascade () in
  let lib = Hsyn_modlib.Library.default in
  let config =
    {
      S.default_config with
      S.max_moves = 6;
      max_passes = 2;
      max_candidates = 24;
      trace_length = 8;
      max_clocks = 2;
      clib_effort = { Clib.default_effort with Clib.max_moves = 4; max_passes = 1 };
    }
  in
  let sampling_ns = 2.2 *. S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  let value enable_rewrite =
    match
      Result.bind
        (S.Request.make
           ~config:{ config with S.enable_rewrite }
           ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective:Cost.Power ~sampling_ns ())
        S.synthesize
    with
    | Ok r -> Cost.objective_value Cost.Power r.S.eval
    | Error msg -> Alcotest.failf "synthesis failed: %s" msg
  in
  let on = value true and off = value false in
  if not (on < off) then Alcotest.failf "with E %.4f, without E %.4f: not strictly better" on off

(* The gated candidates are a subsequence of a fresh [Rewrite.candidates]
   of the design's graph: same descriptions, structurally equal graphs. *)
let rec from_fresh cands fresh =
  match cands, fresh with
  | [], _ -> true
  | _, [] -> false
  | ((_, desc), (c : Hsyn_rtl.Design.t)) :: rest, (desc', g') :: fresh' ->
      if desc = desc' && Dfg.equal c.Hsyn_rtl.Design.dfg g' then from_fresh rest fresh'
      else from_fresh cands fresh'

(* The move layer's memo: two calls on one env and design share the
   rewritten graphs; a design over another graph gets its own. *)
let test_memo_shares_rewrites () =
  let module Design = Hsyn_rtl.Design in
  let module Suite = Hsyn_benchmarks.Suite in
  let b = Suite.avenhaus_cascade () in
  let ctx = Tu.ctx () in
  let d = Tu.initial ctx (Hsyn_dfg.Flatten.flatten b.Suite.registry b.Suite.dfg) in
  let env = Tu.moves_env d.Design.dfg in
  let run d = List.of_seq (Hsyn_core.Moves.rewrite_candidates env d) in
  let descriptions = List.map (fun ((_, desc), _) -> desc) in
  let first = run d in
  let second = run d in
  checkb "candidates" true (List.length first > 1);
  checkb "same descriptions" true (descriptions first = descriptions second);
  List.iter2
    (fun ((_, desc), (c1 : Design.t)) (_, (c2 : Design.t)) ->
      checkb (desc ^ ": graph shared") true (c1.Design.dfg == c2.Design.dfg))
    first second;
  checkb "equal to fresh rewrites" true (from_fresh first (Rewrite.candidates d.Design.dfg));
  (* a design over another graph gets that graph's rewrites *)
  let _, d' = List.hd first in
  let third = run d' in
  checkb "rewritten design has candidates" true (third <> []);
  checkb "not the stale list" true (descriptions third <> descriptions first);
  checkb "equal to the new graph's fresh rewrites" true
    (from_fresh third (Rewrite.candidates d'.Design.dfg));
  List.iter
    (fun (_, (c3 : Design.t)) ->
      checkb "no graph of the stale list" false
        (List.exists (fun (_, (c1 : Design.t)) -> c1.Design.dfg == c3.Design.dfg) first))
    third

(* The gate keeps its verdicts: on a call-free design it simulates each
   rewrite once per [Moves.rewrites] entry, however many moves ask for
   the candidates; on a design with calls it simulates on every move.
   Rebinding still runs first on every move, so the rejection counters
   repeat move after move. *)
let test_gate_keeps_verdicts () =
  let module Design = Hsyn_rtl.Design in
  let module Metrics = Hsyn_obs.Metrics in
  let module Suite = Hsyn_benchmarks.Suite in
  let ctx = Tu.ctx () in
  let value name = Metrics.counter_value (Metrics.counter name) in
  (* one move: (candidates kept, gate simulations, rebound, rejected by the gate) *)
  let move env d =
    let sims = value "moves.rewrite.simulated" and seen = value "moves.rewrite.candidates" in
    let unbound = value "moves.rewrite.rejected_bind" and failed = value "moves.rewrite.rejected_sim" in
    let kept = List.length (List.of_seq (Hsyn_core.Moves.rewrite_candidates env d)) in
    ( kept,
      value "moves.rewrite.simulated" - sims,
      value "moves.rewrite.candidates" - seen - (value "moves.rewrite.rejected_bind" - unbound),
      value "moves.rewrite.rejected_sim" - failed )
  in
  let check what ~call_free env d =
    let kept, sims, rebound, rejected = move env d in
    checkb (what ^ ": rewrites rebind") true (rebound > 0);
    checki (what ^ ": first move simulates every rebound rewrite") rebound sims;
    checki (what ^ ": kept or rejected by the gate") rebound (kept + rejected);
    let kept', sims', rebound', rejected' = move env d in
    checki (what ^ ": same candidates") kept kept';
    checki (what ^ ": rebinds again") rebound rebound';
    checki (what ^ ": gate rejects again") rejected rejected';
    checki (what ^ ": second move simulates") (if call_free then 0 else rebound) sims'
  in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let b = Suite.avenhaus_cascade () in
      let flat = Tu.initial ctx (Hsyn_dfg.Flatten.flatten b.Suite.registry b.Suite.dfg) in
      check "call-free" ~call_free:true (Tu.moves_env flat.Design.dfg) flat;
      (* a multiply by 8 and an add chain, both rewritable, feeding a call *)
      let registry, _ = Tu.hier_graph () in
      let g =
        let b = B.create "with_call" in
        let x = B.input b "a" and y = B.input b "b" and z = B.input b "c" and w = B.input b "d" in
        let m = B.op b ~label:"m" Op.Mult [ x; B.const b ~label:"k" 8 ] in
        let s1 = B.op b ~label:"s1" Op.Add [ x; y ] in
        let s2 = B.op b ~label:"s2" Op.Add [ s1; z ] in
        let s3 = B.op b ~label:"s3" Op.Add [ s2; w ] in
        B.output b ~label:"o" (B.call b ~label:"c1" ~behavior:"mac" ~n_out:1 [ s3; m; y ]).(0);
        B.finish b
      in
      let d = Tu.initial ~registry ctx g in
      check "with a call" ~call_free:false (Tu.moves_env ~registry g) d)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rewrite"
    [
      ( "strength-reduce",
        [
          tc "mult by 2^k" test_strength_reduce_pow2;
          tc "mult by 0/1" test_strength_reduce_trivial;
          tc "non-power untouched" test_strength_reduce_non_pow2;
          tc "shift canonicalization" test_shift_canonicalization;
        ] );
      ( "rebalance",
        [
          tc "chain" test_rebalance_chain;
          tc "balanced untouched" test_rebalance_skips_balanced;
        ] );
      ( "cse",
        [ tc "duplicate adds" test_cse; tc "distinct untouched" test_cse_distinct_untouched ]
      );
      ( "soundness",
        [
          tc "all candidates valid + equivalent" test_all_candidates_sound;
          tc "kind attribution" test_kind_of_description;
        ] );
      ( "memo",
        [
          tc "rewrites shared per graph" test_memo_shares_rewrites;
          tc "gate keeps its verdicts" test_gate_keeps_verdicts;
        ] );
      ("synthesis", [ tc "family E improves avenhaus_cascade" test_family_e_improves_avenhaus ]);
    ]
