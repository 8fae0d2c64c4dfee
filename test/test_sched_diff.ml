(* Differential tests: the event-driven scheduler kernel must be
   bit-identical to the original time-stepped kernel, the reference
   [Hsyn_fuzz.Sched_ref]. Every built-in benchmark is scheduled at
   several deadlines and under several technology contexts, the
   winners of full synthesis runs and their neighbourhoods are diffed
   too, and ALAP is checked against ASAP. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Dfg = Hsyn_dfg.Dfg
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Library = Hsyn_modlib.Library
module Sched_ref = Hsyn_fuzz.Sched_ref
module Embed = Hsyn_embed.Embed
module Metrics = Hsyn_obs.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let lib = Library.default

let check_same_schedule what (a : Sched.schedule) (b : Sched.schedule) =
  checkb (what ^ ": feasible") a.Sched.feasible b.Sched.feasible;
  checki (what ^ ": makespan") a.Sched.makespan b.Sched.makespan;
  checkb (what ^ ": start") true (a.Sched.start = b.Sched.start);
  checkb (what ^ ": avail") true (a.Sched.avail = b.Sched.avail)

(* Schedule one design under both kernels at a given deadline and
   context, and demand field-by-field equality. The event kernel is
   exercised both with a per-call cache and with a shared one that
   already holds the graph's prepared context. *)
let diff_schedule what ctx d ~deadline =
  let cs = Sched.relaxed ~deadline d.Design.dfg in
  let reference = Sched_ref.schedule ctx cs d in
  let event = Sched.schedule ctx cs d in
  let cache = Sched.Cache.create () in
  ignore (Sched.schedule ~cache ctx cs d);
  let event_c = Sched.schedule ~cache ctx cs d in
  check_same_schedule (what ^ " event") event reference;
  check_same_schedule (what ^ " event+cache") event_c reference;
  reference

(* Three deadlines: relaxed, exactly the relaxed makespan, and one
   cycle tighter (usually infeasible). Returns the relaxed schedule. *)
let diff_deadlines what ctx d =
  let relaxed = diff_schedule what ctx d ~deadline:1_000 in
  let m = relaxed.Sched.makespan in
  ignore (diff_schedule (what ^ " tight") ctx d ~deadline:(max 1 m));
  ignore (diff_schedule (what ^ " infeasible") ctx d ~deadline:(max 1 (m - 1)));
  relaxed

(* Every built-in benchmark, three deadlines, two technology
   contexts. *)
let test_suite_schedules () =
  List.iter
    (fun (b : Suite.t) ->
      List.iter
        (fun (vdd, clk_ns) ->
          let ctx = { Design.lib; vdd; clk_ns } in
          let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
          let what = Printf.sprintf "%s@%.1fV" b.Suite.name vdd in
          let relaxed = diff_deadlines what ctx d in
          checkb (what ^ ": relaxed feasible") true relaxed.Sched.feasible)
        [ (5.0, 20.0); (3.3, 34.0) ])
    (Suite.all ())

(* Whether some register holds two values, and whether some unit that
   is not a chain runs two operations: what register anti-edges and
   jobs parked on a busy unit need. The initial designs have neither. *)
let shares_register (d : Design.t) =
  let seen = Array.make (max 1 d.Design.n_regs) 0 in
  Array.iter (fun r -> if r >= 0 then seen.(r) <- seen.(r) + 1) d.Design.value_reg;
  Array.exists (fun n -> n > 1) seen

let shares_unit (d : Design.t) =
  let by_inst = Design.nodes_by_inst d in
  Array.exists
    (fun i ->
      match d.Design.insts.(i), by_inst.(i) with
      | Design.Simple fu, _ :: _ :: _ -> not (Hsyn_modlib.Fu.is_chain fu)
      | _ -> false)
    (Array.init (Array.length d.Design.insts) Fun.id)

(* Diff every design of [Tu.neighbourhood d] at the three deadlines;
   returns how many deadlocked (the infeasible record, no job started)
   and how many shared a register. *)
let diff_neighbourhood what ctx d =
  let results =
    List.mapi
      (fun k n ->
        let relaxed = diff_deadlines (Printf.sprintf "%s neighbour %d" what k) ctx n in
        ( (not relaxed.Sched.feasible) && Array.for_all (fun s -> s < 0) relaxed.Sched.start,
          shares_register n ))
      (Tu.neighbourhood lib d)
  in
  let count f = List.length (List.filter f results) in
  (count fst, count snd)

(* The neighbourhoods of the initial designs move values into used
   registers, which adds anti-edges and sometimes deadlocks. *)
let test_neighbourhood_schedules () =
  let ctx = Tu.ctx () in
  let deadlocked, shared =
    List.fold_left
      (fun (dl, sh) (b : Suite.t) ->
        let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
        let dl', sh' = diff_neighbourhood b.Suite.name ctx d in
        (dl + dl', sh + sh'))
      (0, 0) (Suite.all ())
  in
  checkb "some neighbour shares a register" true (shared > 0);
  checkb "some neighbour deadlocks" true (deadlocked > 0)

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

(* The synthesis runs below use a small config so the whole matrix
   runs in seconds. *)
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

let synth ?(flatten = false) ~lf (b : Suite.t) objective =
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  match
    Result.bind
      (S.Request.make ~config ~flatten ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective
         ~sampling_ns:(lf *. min_ns) ())
      S.synthesize
  with
  | Ok r -> r
  | Error msg -> Alcotest.failf "synthesis of %s failed: %s" b.Suite.name msg

(* Each suite behavior synthesized flat for area at L.F. 1.2, where
   units are shared most, and its neighbourhood, which adds shared
   registers (the final designs keep one register per value). *)
let test_area_final_schedules () =
  let shared_units = ref 0 and deadlocked = ref 0 and shared_regs = ref 0 in
  List.iter
    (fun (b : Suite.t) ->
      let r = synth ~flatten:true ~lf:1.2 b Cost.Area in
      let d = r.S.design in
      if shares_unit d then incr shared_units;
      let what = b.Suite.name ^ " area final" in
      let relaxed = diff_deadlines what r.S.ctx d in
      checkb (what ^ ": relaxed feasible") true relaxed.Sched.feasible;
      let dl, sh = diff_neighbourhood what r.S.ctx d in
      deadlocked := !deadlocked + dl;
      shared_regs := !shared_regs + sh)
    (Suite.all ());
  checkb "some final design shares a unit" true (!shared_units > 0);
  checkb "some final neighbour shares a register" true (!shared_regs > 0);
  checkb "some final neighbour deadlocks" true (!deadlocked > 0)

(* [d] with its first two module instances embedded into one module
   that runs both their calls, as move C's embed candidate builds it:
   a module of two parts, whose profiles must be told apart by
   behavior. *)
let embed_first_modules ctx (d : Design.t) =
  let modules =
    List.filter_map
      (fun i -> match d.Design.insts.(i) with Design.Module rm -> Some (i, rm) | Design.Simple _ -> None)
      (List.init (Array.length d.Design.insts) Fun.id)
  in
  match modules with
  | (i, rmi) :: (j, rmj) :: _ ->
      Embed.merge_modules ctx ~name:"embedded" rmi rmj
      |> Option.map (fun (merged, _) ->
             Design.compact
               (Design.with_bindings
                  (Design.with_inst d i (Design.Module merged))
                  (Design.nodes_on d j) i))
  | _ -> None

(* The winners of hierarchical synthesis, at both objectives: each is
   diffed at its own deadline, at the three deadlines, and over its
   whole neighbourhood, and so is each winner with two modules
   embedded into one. Their module parts come from the complex
   library's nested synthesis, and the reference derives their
   profiles with its own kernel. *)
let test_synthesis_equivalence () =
  let embedded = ref 0 in
  List.iter
    (fun (b : Suite.t) ->
      List.iter
        (fun objective ->
          let what = Printf.sprintf "%s/%s" b.Suite.name (Cost.objective_name objective) in
          let r = synth ~lf:2.2 b objective in
          let d = r.S.design in
          let winner = diff_schedule (what ^ " winner") r.S.ctx d ~deadline:r.S.deadline_cycles in
          checkb (what ^ ": winner feasible") true winner.Sched.feasible;
          ignore (diff_deadlines what r.S.ctx d);
          ignore (diff_neighbourhood what r.S.ctx d);
          match embed_first_modules r.S.ctx d with
          | Some e ->
              incr embedded;
              ignore (diff_deadlines (what ^ " embedded") r.S.ctx e)
          | None -> ())
        [ Cost.Area; Cost.Power ])
    [ Suite.test1 (); Suite.hier_paulin () ];
  checkb "some winner has two modules to embed" true (!embedded > 0)

(* Scheduling is counted, and the reference counts nothing: a call that
   moved [Sched.stats] would mean it ran the event kernel somewhere.
   The kernel counts only while metrics are armed, so both windows are
   armed. *)
let test_stats_accounting () =
  let b = Suite.test1 () in
  let ctx = Tu.ctx () in
  let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
  let cs = Sched.relaxed ~deadline:1_000 d.Design.dfg in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let before = Sched.stats () in
  ignore (Sched.schedule ctx cs d);
  let delta = Sched.sub_stats (Sched.stats ()) before in
  checkb "schedules counted" true (delta.Sched.schedules >= 1);
  checkb "events popped" true (delta.Sched.events_popped > 0);
  let before = Sched.stats () in
  ignore (Sched_ref.schedule ctx cs d);
  checkb "reference counts nothing" true
    (Sched.sub_stats (Sched.stats ()) before = Sched.zero_stats)

let () =
  Alcotest.run "sched_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "suite schedules" `Quick test_suite_schedules;
          Alcotest.test_case "suite neighbourhoods" `Quick test_neighbourhood_schedules;
          Alcotest.test_case "alap vs asap" `Quick test_alap_vs_asap;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "end to end equivalence" `Slow test_synthesis_equivalence;
          Alcotest.test_case "area-optimized designs" `Quick test_area_final_schedules;
        ] );
    ]
