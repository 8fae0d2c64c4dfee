(* Per-layer metrics of a traced run: the always-on counters of the
   traced pass, the [stage.*] histograms the program's own spans feed,
   and benchmark-owned spans that time one public call per layer from
   outside. All spans are kept in memory and written at the end as one
   Chrome trace. *)

module W = Workload
module S = Hsyn_core.Synthesize
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module Initial = Hsyn_core.Initial
module Session = Hsyn_core.Session
module Wire = Hsyn_core.Wire
module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Sim = Hsyn_eval.Sim
module Power = Hsyn_eval.Power
module Area = Hsyn_eval.Area
module Embed = Hsyn_embed.Embed
module Rewrite = Hsyn_dfg.Rewrite
module Flatten = Hsyn_dfg.Flatten
module Text = Hsyn_dfg.Text
module Rng = Hsyn_util.Rng
module Json = Hsyn_util.Json
module Stats = Hsyn_util.Stats
module Trace = Hsyn_obs.Trace
module Metrics = Hsyn_obs.Metrics

(* Large enough that a traced pass of any workload drops no event. *)
let ring_capacity = 1_000_000

let arm () =
  Trace.reset ();
  Trace.set_capacity ring_capacity;
  Metrics.reset ();
  Trace.set_enabled true;
  Metrics.set_enabled true

(* Disarms the tracer. The returned wall-clock instant matches the
   tracer's [perf.clock] marker, so benchmark-owned spans can be placed
   on the tracer's time axis. *)
let disarm () =
  let t = Unix.gettimeofday () in
  Trace.instant Trace.Pass "perf.clock";
  Trace.set_enabled false;
  Metrics.set_enabled false;
  t

(* ------------------------------------------------------------------ *)
(* Benchmark-owned spans *)

type span = { name : string; start : float; dur : float; calls : int }

let spans = ref []

(* Median time per call of [f] over [reps] samples; every sample is
   kept as a span. An untimed first call sizes the samples: calls
   shorter than 1 ms are repeated within a sample until it lasts about
   1 ms, since the clock ticks in microseconds. *)
let time ?(reps = 5) name f =
  let calls =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let once = Unix.gettimeofday () -. t0 in
    max 1 (min 10_000 (int_of_float (1e-3 /. Float.max once 1e-7)))
  in
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (f ()))
        done;
        let dur = Unix.gettimeofday () -. t0 in
        spans := { name; start = t0; dur; calls } :: !spans;
        dur /. Float.of_int calls)
  in
  Stats.median samples

(* One timed call per layer on a finished synthesis, in seconds. *)
let subject_layers (s : W.subject) =
  let r = s.W.result and config = s.W.config and registry = s.W.registry and top = s.W.top in
  let d = r.S.design and ctx = r.S.ctx in
  let cs = Sched.relaxed ~deadline:r.S.deadline_cycles d.Design.dfg in
  let trace = W.synthesis_trace config d.Design.dfg in
  let cache = Sched.Cache.create () in
  let complexes = Clib.lookup r.S.clib in
  let initial = Initial.build ~sched_cache:cache ctx ~complexes registry top in
  let as_module name part = { Design.rm_name = "perf." ^ name; parts = [ (name, part) ] } in
  [
    ("sim.run_us", time "sim.run" (fun () -> Sim.run d trace));
    ( "power.energy_us",
      time "power.energy" (fun () -> Power.energy_per_sample ~sched_cache:cache ctx cs d trace) );
    ( "cost.evaluate_us",
      time "cost.evaluate" (fun () ->
          Cost.evaluate ~with_power:true ~sched_cache:cache ctx cs ~sampling_ns:r.S.sampling_ns ~trace d)
    );
    ("sched.schedule_us", time "sched.schedule" (fun () -> Sched.schedule ~cache ctx cs d));
    ( "area.total_us",
      time "area.total" (fun () -> Area.total ~sched_cache:cache ctx d ~n_states:r.S.eval.Cost.makespan)
    );
    ("design.fingerprint_us", time "design.fingerprint" (fun () -> Design.fingerprint d));
    ("rewrite.candidates_us", time "rewrite.candidates" (fun () -> Rewrite.candidates d.Design.dfg));
    ( "clib.build_ms",
      time ~reps:3 "clib.build" (fun () ->
          Clib.build ~session:(Session.create ()) ctx registry ~rng:(Rng.create config.S.seed)
            ~trace_length:config.S.trace_length ~effort:config.S.clib_effort ~top) );
    ( "initial.build_us",
      time "initial.build" (fun () -> Initial.build ~sched_cache:cache ctx ~complexes registry top) );
    ( "embed.merge_us",
      time "embed.merge" (fun () ->
          Embed.merge_modules ctx ~name:"perf.merged" (as_module "final" d) (as_module "initial" initial))
    );
    ("flatten.flatten_us", time "flatten.flatten" (fun () -> Flatten.flatten registry s.W.dfg));
    ("text.parse_us", time "text.parse" (fun () -> Text.parse_string s.W.text));
    ("wire.decode_us", time "wire.decode" (fun () -> Wire.doc_of_string s.W.line));
  ]

(* Per-call medians, geometric mean over subjects, in each metric's
   unit. [wire.reject_us] decodes the malformed line of serve_mix. *)
let layer_metrics subjects =
  let per_subject = List.map subject_layers subjects in
  let reject = time "wire.reject" (fun () -> Wire.doc_of_string W.malformed_line) in
  let scale unit_ = match unit_ with "us" -> 1e6 | "ms" -> 1e3 | _ -> 1. in
  List.map
    (fun (name, unit_) ->
      let secs = if name = "wire.reject_us" then [ reject ] else List.filter_map (List.assoc_opt name) per_subject in
      (name, Stats.geomean secs *. scale unit_))
    Catalog.layer_spans

(* ------------------------------------------------------------------ *)
(* Counters and stage histograms *)

let ratio num den = if den = 0 then 0. else Float.of_int num /. Float.of_int den

(* Sum of the counters named [prefix<family>]. *)
let counter_sum prefix =
  Metrics.fold
    (fun ~base ~labels:_ view acc ->
      match view with
      | Metrics.Counter_view n when String.starts_with ~prefix base -> acc + n
      | _ -> acc)
    0

let stage_metrics () =
  let view s = Metrics.histogram_view (Metrics.histogram ("stage." ^ s)) in
  List.map (fun s -> ("stage." ^ s ^ ".ms", (view s).Metrics.sum)) Catalog.timed_stages
  @ List.map (fun s -> ("stage." ^ s ^ ".calls", Float.of_int (view s).Metrics.count)) Catalog.counted_stages

(* Read right after the traced pass, before anything else runs while
   the tracer is armed. *)
let pass_metrics (p : W.pass) =
  let c = p.W.counts in
  let e = c.W.engine in
  let fam f = Option.value (List.assoc_opt f c.W.families) ~default:Session.zero in
  let i n = Float.of_int n in
  [
    ("engine.generated", i e.Session.generated);
    ("engine.evaluated", i e.Session.evaluated);
    ("engine.batches", i e.Session.batches);
    ("engine.cache_lookups", i (e.Session.cache_hits + e.Session.cache_misses));
    ("engine.evictions", i e.Session.evictions);
    ("engine.power_sims", i e.Session.power_sims);
    ("engine.power_skipped", i e.Session.power_skipped);
    ("engine.cache_hit_ratio", ratio e.Session.cache_hits (e.Session.cache_hits + e.Session.cache_misses));
  ]
  @ List.concat_map
      (fun (short, full) ->
        [
          ("moves." ^ short ^ ".generated", i (fam full).Session.generated);
          ("moves." ^ short ^ ".evaluated", i (fam full).Session.evaluated);
        ])
      Catalog.families
  @ [
      (* top-level passes; moves at every level, including library
         construction and resynthesis *)
      ("pass.passes", i c.W.passes_run);
      ("pass.moves_tried", i (counter_sum "moves.committed." + counter_sum "moves.reverted."));
      ("pass.moves_committed", i (counter_sum "moves.committed."));
      ("synthesize.contexts", i c.W.contexts);
      ("sched.schedules", i p.W.sched.Sched.schedules);
      ("sched.events_popped", i p.W.sched.Sched.events_popped);
      ("sched.prepared_builds", i p.W.sched.Sched.prepared_builds);
      ( "sched.prepared_hit_ratio",
        ratio p.W.sched.Sched.prepared_hits (p.W.sched.Sched.prepared_hits + p.W.sched.Sched.prepared_builds) );
      ("session.profile_hit_ratio", ratio c.W.profile_hits (c.W.profile_hits + c.W.profile_misses));
      ("request.run_ms_p50", Stats.median p.W.run_ms);
      ("request.outside_ms_p50", Stats.median p.W.outside_ms);
      ("request.rejected", i p.W.rejected);
    ]
  @ stage_metrics ()

(* ------------------------------------------------------------------ *)
(* Chrome trace export *)

(* Writes the tracer's own export ([Trace.to_json]) to [path], with the
   benchmark-owned spans appended to its events; returns the number of
   events written. *)
let write_trace path ~clock =
  let epoch =
    match List.find_opt (fun ev -> ev.Trace.ev_name = "perf.clock") (Trace.events ()) with
    | Some ev -> clock -. (ev.Trace.ev_ts_us /. 1e6)
    | None -> clock
  in
  let span s =
    Json.Obj
      [
        ("ph", Json.String "X");
        ("name", Json.String s.name);
        ("cat", Json.String "bench");
        ("ts", Json.Float ((s.start -. epoch) *. 1e6));
        ("pid", Json.Int (Unix.getpid ()));
        ("tid", Json.Int (Domain.self () :> int));
        ("args", Json.Obj [ ("calls", Json.Int s.calls) ]);
        ("dur", Json.Float (s.dur *. 1e6));
      ]
  in
  let fields = match Trace.to_json () with Json.Obj fields -> fields | _ -> [] in
  let events =
    (match List.assoc_opt "traceEvents" fields with Some (Json.List l) -> l | _ -> [])
    @ List.rev_map span !spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string (Json.Obj (("traceEvents", Json.List events) :: List.remove_assoc "traceEvents" fields)));
      output_char oc '\n');
  List.length events
