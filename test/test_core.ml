(* Tests for the synthesis core: cost evaluation, moves, the
   variable-depth pass, complex library construction. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Registry = Hsyn_dfg.Registry
module B = Hsyn_dfg.Dfg.Builder
module Library = Hsyn_modlib.Library
module Fu = Hsyn_modlib.Fu
module Sched = Hsyn_sched.Sched
module Cost = Hsyn_core.Cost
module Engine = Hsyn_core.Engine
module Moves = Hsyn_core.Moves
module Pass = Hsyn_core.Pass
module Clib = Hsyn_core.Clib
module Rng = Hsyn_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ctx = Tu.ctx ()
let _lib = Library.default

let env = Tu.moves_env

(* Direct evaluation in the env's evaluation context, bypassing its
   engine. *)
let eval_of ?with_power env d =
  let eng = env.Moves.engine in
  Cost.evaluate ?with_power (Engine.ctx eng) (Engine.constraints eng)
    ~sampling_ns:(Engine.sampling_ns eng) ~trace:(Engine.trace eng) d

let obj_value env d = Cost.objective_value (Engine.objective env.Moves.engine) (eval_of env d)

(* ------------------------------------------------------------------ *)
(* Cost *)

let test_cost_objective_parsing () =
  checkb "area" true (Cost.objective_of_string "area" = Some Cost.Area);
  checkb "power" true (Cost.objective_of_string "power" = Some Cost.Power);
  checkb "junk" true (Cost.objective_of_string "speed" = None);
  Alcotest.check Alcotest.string "name" "power" (Cost.objective_name Cost.Power)

let test_cost_evaluate_fields () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env g in
  let ev = eval_of e d in
  checkb "feasible" true ev.Cost.feasible;
  checkb "area positive" true (ev.Cost.area > 0.);
  checkb "power positive" true (ev.Cost.power > 0.);
  checki "makespan" 4 ev.Cost.makespan

let test_cost_infeasible_is_infinite () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env ~deadline:2 g in
  checkb "infinite" true (obj_value e d = infinity)

let test_cost_skip_power () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let ev = eval_of ~with_power:false (env g) d in
  checkb "power skipped" true (Float.is_nan ev.Cost.power)

(* ------------------------------------------------------------------ *)
(* Moves *)

let test_move_a_finds_cheaper_adder () =
  (* with a loose deadline, area optimization should swap add1 -> add2
     (30 -> 20 area) or share; the best A-move must have positive gain *)
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env g in
  match Moves.best_select_or_resynth e (obj_value e d) d with
  | None -> Alcotest.fail "expected a move"
  | Some m ->
      checkb "positive gain" true (m.Moves.gain > 0.);
      checkb "kind A" true (m.Moves.kind = Moves.Select)

let test_move_a_respects_deadline () =
  (* with a 4-cycle deadline, swapping to 2-cycle adders breaks the
     schedule; every surviving candidate must stay feasible *)
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env ~deadline:4 g in
  match Moves.best_select_or_resynth e (obj_value e d) d with
  | None -> () (* fine: nothing feasible and profitable *)
  | Some m -> checkb "candidate feasible" true m.Moves.eval.Cost.feasible

let test_move_c_shares_adders () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env g in
  match Moves.best_merge e (obj_value e d) d with
  | None -> Alcotest.fail "expected a sharing move"
  | Some m ->
      checkb "merge kind" true (m.Moves.kind = Moves.Merge);
      checkb "gain positive for area" true (m.Moves.gain > 0.);
      checkb "still valid" true (Design.validate ctx m.Moves.candidate = Ok ())

let test_move_c_chain_fusion () =
  let g = Tu.add_chain_graph () in
  let d = Tu.initial ctx g in
  let e = env g in
  (* among merge candidates there must be a chain fusion onto
     chained_add2 or chained_add3 that is schedulable *)
  match Moves.best_merge e (obj_value e d) d with
  | None -> Alcotest.fail "expected merge moves"
  | Some m -> checkb "valid candidate" true (Design.validate ctx m.Moves.candidate = Ok ())

let test_move_d_splits_shared_unit () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i1 = Tu.inst_of d "s1" in
  let d = Design.compact (Design.with_binding d (Tu.node_id g "s2") i1) in
  let e = env g in
  match Moves.best_split e (obj_value e d) d with
  | None -> Alcotest.fail "expected a split move"
  | Some m ->
      checkb "split kind" true (m.Moves.kind = Moves.Split);
      checkb "valid" true (Design.validate ctx m.Moves.candidate = Ok ());
      (* splitting a shared adder costs area: negative gain under Area *)
      checkb "negative area gain" true (m.Moves.gain < 0.)

let test_move_b_resynthesizes_with_slack () =
  (* module on the non-critical path gets resynthesized: the inner
     multiplier may become mult2 when the environment allows *)
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  let effort = { Clib.default_effort with Clib.max_moves = 4; max_passes = 1; max_candidates = 20 } in
  let resynth _behavior cs (part : Design.t) =
    fst
      (Clib.improve_part ctx registry ~complexes:Tu.no_complexes ~effort
         ~trace:(Tu.trace part.Design.dfg) ~allow_embed:true ~allow_split:true ~allow_rewrite:true
         cs Cost.Power part)
  in
  let e = env ~registry ~objective:Cost.Power ~resynth g in
  match Moves.best_select_or_resynth e (obj_value e d) d with
  | None -> () (* acceptable: no profitable resynthesis *)
  | Some m -> checkb "valid candidate" true (Design.validate ctx m.Moves.candidate = Ok ())

(* Move B's resynthesizer: requests on test1's sum4 behavior, the
   initial part of its sum4_tree variant under relaxed inner
   constraints of a given deadline. Under power, this request's answer
   depends on the nested trace. *)
module S = Hsyn_core.Synthesize
module Metrics = Hsyn_obs.Metrics

let resynth_setup () =
  let b = Hsyn_benchmarks.Suite.test1 () in
  let registry = b.Hsyn_benchmarks.Suite.registry in
  let variant =
    List.find (fun (g : Dfg.t) -> g.Dfg.name = "sum4_tree") (Registry.variants registry "sum4")
  in
  let part = Tu.initial ~registry ctx variant in
  let config =
    {
      S.default_config with
      S.trace_length = 8;
      clib_effort = { Clib.default_effort with Clib.max_moves = 4; max_passes = 1 };
    }
  in
  let resynthesizer ?token () =
    S.make_resynth ?token config registry Tu.no_complexes ctx Cost.Power
  in
  (* a fresh constraints record for every request: the table compares
     constraints structurally *)
  let request deadline = Sched.relaxed ~deadline variant in
  (resynthesizer, part, request)

(* Runs [f] with metrics on; returns its result and the requests and
   nested runs it counted. *)
let counting f =
  let value name = Metrics.counter_value (Metrics.counter name) in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let requests = value "moves.resynth.requests" and runs = value "moves.resynth.runs" in
      let r = f () in
      (r, value "moves.resynth.requests" - requests, value "moves.resynth.runs" - runs))

let test_resynth_repeat_runs_once () =
  let resynthesizer, part, request = resynth_setup () in
  let resynth = resynthesizer () in
  let (first, again), requests, runs =
    counting (fun () ->
        let first = resynth "sum4" (request 12) part in
        (first, resynth "sum4" (request 12) part))
  in
  checkb "the part improves" false (first == part);
  checki "two requests" 2 requests;
  checki "one nested run" 1 runs;
  checkb "the same part" true (again == first)

let test_resynth_order_free () =
  let resynthesizer, part, request = resynth_setup () in
  let after_another =
    let resynth = resynthesizer () in
    ignore (resynth "sum4" (request 6) part : Design.t);
    resynth "sum4" (request 12) part
  in
  let alone = (resynthesizer ()) "sum4" (request 12) part in
  checkb "the part improves" false (alone == part);
  checkb "same answer" true (Design.equal after_another alone)

let test_resynth_contexts_share_nothing () =
  let resynthesizer, part, request = resynth_setup () in
  let (a, b), requests, runs =
    counting (fun () ->
        let a = (resynthesizer ()) "sum4" (request 12) part in
        (a, (resynthesizer ()) "sum4" (request 12) part))
  in
  checki "two requests" 2 requests;
  checki "two nested runs" 2 runs;
  checkb "equal answers" true (Design.equal a b);
  checkb "not shared" false (a == b)

let test_resynth_interrupted_not_kept () =
  let resynthesizer, part, request = resynth_setup () in
  let token = Hsyn_core.Budget.start Hsyn_core.Budget.unlimited in
  Hsyn_core.Budget.cancel token;
  let resynth = resynthesizer ~token () in
  let _, requests, runs =
    counting (fun () ->
        ignore (resynth "sum4" (request 12) part : Design.t);
        resynth "sum4" (request 12) part)
  in
  checki "two requests" 2 requests;
  checki "both run" 2 runs

let test_module_sharing_move () =
  (* two calls of the same behavior on separate module instances:
     among the sharing candidates there must be one that multiplexes
     both calls onto one instance, and under Area it should win *)
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  let e = env ~registry g in
  match Moves.best_merge e (obj_value e d) d with
  | None -> Alcotest.fail "expected a sharing move"
  | Some m ->
      checkb "valid" true (Design.validate ctx m.Moves.candidate = Ok ());
      checkb "area gain positive" true (m.Moves.gain > 0.);
      (* the winning candidate uses fewer module instances *)
      let modules_of dd =
        Array.to_list dd.Design.insts
        |> List.filter (function Design.Module _ -> true | Design.Simple _ -> false)
        |> List.length
      in
      checkb "instances reduced" true (modules_of m.Moves.candidate < modules_of d)

let test_left_edge_reduces_registers () =
  (* serial adds: intermediate values have disjoint lifetimes, so the
     left-edge move shrinks the register file *)
  let g = Tu.add_chain_graph () in
  let d = Tu.initial ctx g in
  let e = env g in
  match Moves.best_merge e (obj_value e d) d with
  | None -> Alcotest.fail "expected merge move"
  | Some m ->
      checkb "register count reduced or units shared" true
        (Design.reg_count_used [ m.Moves.candidate ] < Design.reg_count_used [ d ]
        || Array.length m.Moves.candidate.Design.insts < Array.length d.Design.insts)

(* ------------------------------------------------------------------ *)
(* Pass *)

let test_pass_improves_area () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env g in
  let before = (eval_of e d).Cost.area in
  let improved, stats = Pass.improve e ~max_moves:8 ~max_passes:4 d in
  let after = (eval_of e improved).Cost.area in
  checkb "area reduced" true (after < before);
  checkb "moves committed" true (Pass.moves_committed stats > 0);
  checkb "result valid" true (Design.validate ctx improved = Ok ());
  checkb "result feasible" true (eval_of e improved).Cost.feasible

let test_pass_respects_tight_deadline () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env ~deadline:4 g in
  let improved, _ = Pass.improve e ~max_moves:8 ~max_passes:3 d in
  checkb "still feasible" true (eval_of e improved).Cost.feasible

let test_pass_infeasible_input_returned () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env ~deadline:1 g in
  let improved, stats = Pass.improve e ~max_moves:4 ~max_passes:2 d in
  checkb "unchanged" true (improved == d);
  checki "no passes" 0 stats.Pass.passes

let test_pass_power_objective () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = env ~objective:Cost.Power g in
  let before = (eval_of e d).Cost.power in
  let improved, _ = Pass.improve e ~max_moves:8 ~max_passes:3 d in
  let after = (eval_of e improved).Cost.power in
  checkb "power not worse" true (after <= before +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Clib *)

let test_clib_builds_variants () =
  let registry, g = Tu.hier_graph () in
  let clib =
    Clib.build ctx registry ~rng:(Rng.create 5) ~trace_length:8 ~effort:Clib.default_effort
      ~top:g
  in
  Alcotest.check (Alcotest.list Alcotest.string) "behaviors" [ "mac" ] (Clib.behaviors clib);
  let mods = Clib.lookup clib "mac" in
  checki "fast + area + power" 3 (List.length mods);
  List.iter
    (fun (rm : Design.rtl_module) ->
      List.iter
        (fun (_, part) -> checkb "parts validate" true (Design.validate ctx part = Ok ()))
        rm.Design.parts)
    mods;
  checkb "unknown behavior empty" true (Clib.lookup clib "nosuch" = [])

let test_clib_multi_variant_behavior () =
  let registry = Registry.create () in
  Hsyn_benchmarks.Blocks.prod4 registry;
  let b = B.create "top" in
  let i = Array.init 4 (fun k -> B.input b (Printf.sprintf "i%d" k)) in
  let c = B.call b ~behavior:"prod4" ~n_out:1 [ i.(0); i.(1); i.(2); i.(3) ] in
  B.output b c.(0);
  let g = B.finish b in
  let clib =
    Clib.build ctx registry ~rng:(Rng.create 5) ~trace_length:8 ~effort:Clib.default_effort
      ~top:g
  in
  (* two variants × three optimization points *)
  checki "six modules" 6 (List.length (Clib.lookup clib "prod4"));
  let s = Format.asprintf "%a" (Clib.pp ctx) clib in
  checkb "figure-2 listing prints" true (String.length s > 100)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "cost",
        [
          tc "objective parsing" test_cost_objective_parsing;
          tc "evaluate fields" test_cost_evaluate_fields;
          tc "infeasible infinite" test_cost_infeasible_is_infinite;
          tc "skip power" test_cost_skip_power;
        ] );
      ( "moves",
        [
          tc "A finds cheaper adder" test_move_a_finds_cheaper_adder;
          tc "A respects deadline" test_move_a_respects_deadline;
          tc "C shares adders" test_move_c_shares_adders;
          tc "C chain fusion" test_move_c_chain_fusion;
          tc "D splits shared unit" test_move_d_splits_shared_unit;
          tc "B resynthesizes with slack" test_move_b_resynthesizes_with_slack;
          tc "B repeated request runs once" test_resynth_repeat_runs_once;
          tc "B answer ignores request order" test_resynth_order_free;
          tc "B contexts share no entry" test_resynth_contexts_share_nothing;
          tc "B interrupted run not kept" test_resynth_interrupted_not_kept;
          tc "module sharing" test_module_sharing_move;
          tc "left-edge registers" test_left_edge_reduces_registers;
        ] );
      ( "pass",
        [
          tc "improves area" test_pass_improves_area;
          tc "respects tight deadline" test_pass_respects_tight_deadline;
          tc "infeasible input returned" test_pass_infeasible_input_returned;
          tc "power objective" test_pass_power_objective;
        ] );
      ( "clib",
        [
          tc "builds variants" test_clib_builds_variants;
          tc "multi-variant behavior" test_clib_multi_variant_behavior;
        ] );
    ]
