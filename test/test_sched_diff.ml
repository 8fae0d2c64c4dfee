(* Differential tests: the event-driven scheduler kernel must be
   bit-identical to the original time-stepped kernel. Every built-in
   benchmark is scheduled at several deadlines and under several
   technology contexts, full synthesis is run once per kernel per
   objective, and ALAP is checked against ASAP. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Dfg = Hsyn_dfg.Dfg
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Library = Hsyn_modlib.Library

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let lib = Library.default

(* Run [f] with the process-wide kernel forced to [impl], restoring
   the previous selection afterwards (tests share one process). *)
let with_impl impl f =
  let prev = Sched.impl () in
  Sched.set_impl impl;
  Fun.protect ~finally:(fun () -> Sched.set_impl prev) f

let check_same_schedule what (a : Sched.schedule) (b : Sched.schedule) =
  checkb (what ^ ": feasible") a.Sched.feasible b.Sched.feasible;
  checki (what ^ ": makespan") a.Sched.makespan b.Sched.makespan;
  checkb (what ^ ": start") true (a.Sched.start = b.Sched.start);
  checkb (what ^ ": avail") true (a.Sched.avail = b.Sched.avail)

(* Schedule one design under both kernels at a given deadline and
   context, and demand field-by-field equality. The event kernel is
   exercised both with and without an explicitly prepared context. *)
let diff_schedule what ctx d ~deadline =
  let cs = Sched.relaxed ~deadline d.Design.dfg in
  let legacy = with_impl Sched.Legacy (fun () -> Sched.schedule_legacy ctx cs d) in
  let event = with_impl Sched.Event (fun () -> Sched.schedule ctx cs d) in
  let prepared = Sched.prepared_for d.Design.dfg in
  let event_p = with_impl Sched.Event (fun () -> Sched.schedule ~prepared ctx cs d) in
  check_same_schedule (what ^ " event") event legacy;
  check_same_schedule (what ^ " event+prepared") event_p legacy;
  legacy

(* Every built-in benchmark, three deadlines (relaxed, exactly the
   relaxed makespan, and one cycle tighter — usually infeasible), two
   technology contexts. *)
let test_suite_schedules () =
  List.iter
    (fun (b : Suite.t) ->
      List.iter
        (fun (vdd, clk_ns) ->
          let ctx = { Design.lib; vdd; clk_ns } in
          let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
          let what = Printf.sprintf "%s@%.1fV" b.Suite.name vdd in
          let relaxed = diff_schedule what ctx d ~deadline:1_000 in
          checkb (what ^ ": relaxed feasible") true relaxed.Sched.feasible;
          let m = relaxed.Sched.makespan in
          ignore (diff_schedule (what ^ " tight") ctx d ~deadline:(max 1 m));
          ignore (diff_schedule (what ^ " infeasible") ctx d ~deadline:(max 1 (m - 1))))
        [ (5.0, 20.0); (3.3, 34.0) ])
    (Suite.all ())

(* ALAP must never start a node before its ASAP slot, and must agree
   with ASAP on which nodes execute. *)
let test_alap_vs_asap () =
  List.iter
    (fun (b : Suite.t) ->
      let ctx = Tu.ctx () in
      let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
      let sch = Sched.schedule ctx (Sched.relaxed ~deadline:1_000 d.Design.dfg) d in
      checkb (b.Suite.name ^ ": feasible") true sch.Sched.feasible;
      let alap = Sched.alap_start ctx ~deadline:sch.Sched.makespan d in
      Array.iteri
        (fun n a ->
          let s = sch.Sched.start.(n) in
          checkb
            (Printf.sprintf "%s: node %d executes in both" b.Suite.name n)
            (s >= 0) (a >= 0);
          if s >= 0 then
            checkb (Printf.sprintf "%s: alap(%d) >= asap(%d)" b.Suite.name n n) true (a >= s))
        alap)
    (Suite.all ())

(* Full synthesis under each kernel must converge to the same design:
   same deadline, same committed-move sequence, same area/power. The
   config is small so the whole matrix runs in seconds. *)
let config =
  {
    S.default_config with
    S.max_moves = 5;
    max_passes = 2;
    max_candidates = 16;
    trace_length = 8;
    max_clocks = 2;
    clib_effort = { Clib.default_effort with Clib.max_moves = 3; max_passes = 1 };
  }

let synth impl (b : Suite.t) objective =
  with_impl impl (fun () ->
      let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
      match
        Result.bind
          (S.Request.make ~config ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective
             ~sampling_ns:(2.2 *. min_ns) ())
          S.synthesize
      with
      | Ok r -> r
      | Error msg -> Alcotest.failf "synthesis of %s failed: %s" b.Suite.name msg)

let checkf what a b = Alcotest.check (Alcotest.float 1e-9) what a b

let test_synthesis_equivalence () =
  List.iter
    (fun (b : Suite.t) ->
      List.iter
        (fun objective ->
          let what =
            Printf.sprintf "%s/%s" b.Suite.name (Cost.objective_name objective)
          in
          let ev = synth Sched.Event b objective in
          let lg = synth Sched.Legacy b objective in
          checki (what ^ ": deadline") lg.S.deadline_cycles ev.S.deadline_cycles;
          checkf (what ^ ": vdd") lg.S.ctx.Design.vdd ev.S.ctx.Design.vdd;
          checkf (what ^ ": clk") lg.S.ctx.Design.clk_ns ev.S.ctx.Design.clk_ns;
          checkf (what ^ ": area") lg.S.eval.Cost.area ev.S.eval.Cost.area;
          checkf (what ^ ": power") lg.S.eval.Cost.power ev.S.eval.Cost.power;
          checki (what ^ ": moves committed") lg.S.stats.Hsyn_core.Pass.moves_committed
            ev.S.stats.Hsyn_core.Pass.moves_committed;
          checkb (what ^ ": committed moves") true
            (lg.S.stats.Hsyn_core.Pass.committed = ev.S.stats.Hsyn_core.Pass.committed);
          (* the winning designs schedule identically under both kernels *)
          ignore
            (diff_schedule (what ^ " winner") ev.S.ctx ev.S.design
               ~deadline:ev.S.deadline_cycles))
        [ Cost.Area; Cost.Power ])
    [ Suite.test1 (); Suite.hier_paulin () ]

(* The legacy reference path must not disturb the kernel counters'
   invariant: legacy calls are counted both as schedules and as
   legacy_schedules. *)
let test_stats_accounting () =
  let b = Suite.test1 () in
  let ctx = Tu.ctx () in
  let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
  let cs = Sched.relaxed ~deadline:1_000 d.Design.dfg in
  let before = Sched.stats () in
  ignore (Sched.schedule ctx cs d);
  ignore (Sched.schedule_legacy ctx cs d);
  let delta = Sched.sub_stats (Sched.stats ()) before in
  checkb "schedules counted" true (delta.Sched.schedules >= 2);
  checkb "legacy counted" true (delta.Sched.legacy_schedules >= 1);
  checkb "events popped" true (delta.Sched.events_popped > 0);
  checkb "legacy <= total" true (delta.Sched.legacy_schedules <= delta.Sched.schedules)

let () =
  Alcotest.run "sched_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "suite schedules" `Quick test_suite_schedules;
          Alcotest.test_case "alap vs asap" `Quick test_alap_vs_asap;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        ] );
      ( "synthesis",
        [ Alcotest.test_case "end to end equivalence" `Slow test_synthesis_equivalence ] );
    ]
