(* End-to-end synthesis tests: full SYNTHESIZE runs on benchmarks,
   checking feasibility, functional correctness of the synthesized
   design, the flat baseline, voltage rescaling, and the paper's
   qualitative claims on a small example. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Library = Hsyn_modlib.Library
module Sched = Hsyn_sched.Sched
module Sim = Hsyn_eval.Sim
module Flatten = Hsyn_dfg.Flatten
module Cost = Hsyn_core.Cost
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite

let checkb = Alcotest.check Alcotest.bool
let lib = Library.default

(* Cheap test configuration: fewer contexts and shorter traces keep
   the suite fast while exercising every code path. *)
let test_config =
  {
    S.default_config with
    S.max_moves = 6;
    max_passes = 2;
    max_candidates = 20;
    trace_length = 8;
    max_clocks = 2;
    clib_effort = { Hsyn_core.Clib.default_effort with Hsyn_core.Clib.max_moves = 4; max_passes = 1 };
  }

let request ?(objective = Cost.Area) ?(lf = 2.2) ?(flatten = false) (b : Suite.t) =
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  S.Request.make ~config:test_config ~flatten ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg
    ~objective ~sampling_ns:(lf *. min_ns) ()

let synth ?objective ?lf (b : Suite.t) =
  match Result.bind (request ?objective ?lf b) S.synthesize with
  | Ok r -> r
  | Error msg -> Alcotest.failf "synthesis of %s failed: %s" b.Suite.name msg

let synth_flat ?objective ?lf (b : Suite.t) =
  match Result.bind (request ?objective ?lf ~flatten:true b) S.synthesize with
  | Ok r -> r
  | Error msg -> Alcotest.failf "flat synthesis of %s failed: %s" b.Suite.name msg

let test_feasible_result name b =
  let r = synth b in
  checkb (name ^ " feasible") true r.S.eval.Cost.feasible;
  checkb (name ^ " validates") true (Design.validate r.S.ctx r.S.design = Ok ());
  checkb (name ^ " positive area") true (r.S.eval.Cost.area > 0.)

let test_test1_hier () = test_feasible_result "test1" (Suite.test1 ())
let test_iir_hier () = test_feasible_result "iir" (Suite.iir ())
let test_hier_paulin () = test_feasible_result "hier_paulin" (Suite.hier_paulin ())

let test_synthesized_design_computes_behavior () =
  (* the synthesized design must compute the same function as the
     flattened behavior (move A may have picked different variants,
     which are functionally equivalent by construction) *)
  let b = Suite.test1 () in
  let r = synth b in
  let flat = Flatten.flatten b.Suite.registry b.Suite.dfg in
  let trace = Tu.trace ~seed:77 ~length:6 flat in
  let from_design = Sim.outputs r.S.design (Sim.run r.S.design trace) in
  let reference = Sim.run_flat flat trace in
  (* variant swaps preserve the function exactly (tested in
     test_benchmarks); so outputs must agree *)
  checkb "design computes the behavior" true (from_design = reference)

let test_flat_baseline_runs () =
  let b = Suite.test1 () in
  let r = synth_flat b in
  checkb "flat feasible" true r.S.eval.Cost.feasible;
  checkb "no modules in flat design" true
    (Array.for_all
       (function Design.Simple _ -> true | Design.Module _ -> false)
       r.S.design.Design.insts)

let test_area_objective_smaller_than_power () =
  let b = Suite.test1 () in
  let ra = synth ~objective:Cost.Area b in
  let rp = synth ~objective:Cost.Power b in
  checkb "area-opt at 5V" true (ra.S.ctx.Design.vdd = 5.0);
  checkb "area-opt no bigger" true (ra.S.eval.Cost.area <= rp.S.eval.Cost.area +. 1e-9);
  checkb "power-opt no hungrier" true (rp.S.eval.Cost.power <= ra.S.eval.Cost.power +. 1e-9)

let test_power_improves_with_laxity () =
  (* more slack -> at most the same power (voltage/clock freedom grows) *)
  let b = Suite.iir () in
  let tight = synth ~objective:Cost.Power ~lf:1.2 b in
  let loose = synth ~objective:Cost.Power ~lf:3.2 b in
  checkb "laxity helps power" true
    (loose.S.eval.Cost.power <= tight.S.eval.Cost.power *. 1.05)

let test_rescale_vdd () =
  let b = Suite.test1 () in
  let ra = synth ~objective:Cost.Area ~lf:3.2 b in
  let scaled = S.rescale_vdd ~config:test_config ra Hsyn_modlib.Voltage.candidates in
  checkb "vdd not raised" true (scaled.S.ctx.Design.vdd <= ra.S.ctx.Design.vdd +. 1e-9);
  checkb "power not raised" true (scaled.S.eval.Cost.power <= ra.S.eval.Cost.power +. 1e-9);
  checkb "same architecture" true (scaled.S.design == ra.S.design)

let test_infeasible_sampling_fails () =
  (* below the minimum sampling period no context is feasible; the
     request builds fine but the run reports a typed error *)
  match Result.bind (request ~lf:0.2 (Suite.test1 ())) S.synthesize with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error below the minimum sampling period"

let test_min_sampling_positive () =
  List.iter
    (fun (b : Suite.t) ->
      checkb
        (b.Suite.name ^ " min sampling positive")
        true
        (S.min_sampling_ns lib b.Suite.registry b.Suite.dfg > 0.))
    (Suite.all ())

let test_deterministic_runs () =
  let b = Suite.test1 () in
  let r1 = synth b and r2 = synth b in
  checkb "same area" true (r1.S.eval.Cost.area = r2.S.eval.Cost.area);
  checkb "same power" true (r1.S.eval.Cost.power = r2.S.eval.Cost.power)

let test_synthesis_time_reported () =
  let b = Suite.test1 () in
  let r = synth b in
  checkb "elapsed recorded" true (r.S.elapsed_s >= 0.);
  checkb "contexts recorded" true (r.S.coverage.S.contexts_started >= 1)

let () =
  let tc name f = Alcotest.test_case name `Slow f in
  Alcotest.run "endtoend"
    [
      ( "synthesize",
        [
          tc "test1 hierarchical" test_test1_hier;
          tc "iir hierarchical" test_iir_hier;
          tc "hier_paulin" test_hier_paulin;
          tc "design computes behavior" test_synthesized_design_computes_behavior;
          tc "flat baseline" test_flat_baseline_runs;
          tc "area vs power objectives" test_area_objective_smaller_than_power;
          tc "laxity helps power" test_power_improves_with_laxity;
          tc "rescale vdd" test_rescale_vdd;
          tc "infeasible sampling fails" test_infeasible_sampling_fails;
          tc "min sampling positive" test_min_sampling_positive;
          tc "deterministic" test_deterministic_runs;
          tc "timing reported" test_synthesis_time_reported;
        ] );
    ]
