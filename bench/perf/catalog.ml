(* The metric catalog: every metric the benchmark prints, with its unit.
   End-to-end metrics also carry the direction that counts as better
   and the regression bound (the share by which the median may worsen).
   BENCHMARK.json at the repository root lists the same metrics; a test
   keeps the two equal. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float }

let e2e name unit_ bound = { name; unit_; better = Lower; bound }

(* Reported by every workload from its untraced run. *)
let end_to_end =
  [
    e2e "setup_s" "s" 0.25;
    e2e "pass_s" "s" 0.24;
    e2e "request_ms_geomean" "ms" 0.24;
    e2e "request_ms_p75" "ms" 0.24;
    e2e "objective_geomean" "objective" 1e-9;
    e2e "peak_rss_mb" "MB" 0.20;
  ]

let families = [ ("A", "A:select"); ("B", "B:resynth"); ("C", "C:merge"); ("D", "D:split"); ("E", "E:rewrite") ]

(* Stages whose [stage.<name>] histograms the traced pass reads. Every
   workload runs all of them at least once; embedding alone is absent
   from the flattened baseline, so only its call count is reported. *)
let timed_stages =
  [
    "context";
    "pass";
    "batch";
    "best_select_or_resynth";
    "best_merge";
    "best_split";
    "best_rewrite";
    "schedule";
    "power";
    "prepare";
  ]

let counted_stages = timed_stages @ [ "embed" ]

(* Benchmark-owned spans: one public call per layer, timed from
   outside, [(metric, unit)]. *)
let layer_spans =
  [
    ("sim.run_us", "us");
    ("power.energy_us", "us");
    ("cost.evaluate_us", "us");
    ("sched.schedule_us", "us");
    ("area.total_us", "us");
    ("design.fingerprint_us", "us");
    ("rewrite.candidates_us", "us");
    ("clib.build_ms", "ms");
    ("initial.build_us", "us");
    ("embed.merge_us", "us");
    ("flatten.flatten_us", "us");
    ("text.parse_us", "us");
    ("wire.decode_us", "us");
    ("wire.reject_us", "us");
  ]

let metric better unit_ name = { name; unit_; better; bound = nan }
let count = metric Lower "count"
let ratio_higher = metric Higher "ratio"

(* Reported by every workload from its traced run. Counts of work done
   are "lower is better"; hit and skip ratios are "higher". *)
let per_layer =
  List.map count
    [
      "engine.generated";
      "engine.evaluated";
      "engine.batches";
      "engine.cache_lookups";
      "engine.evictions";
      "engine.power_sims";
    ]
  @ [ metric Higher "count" "engine.power_skipped"; ratio_higher "engine.cache_hit_ratio" ]
  @ List.concat_map
      (fun (f, _) -> [ count ("moves." ^ f ^ ".generated"); count ("moves." ^ f ^ ".evaluated") ])
      families
  @ List.map count
      [ "pass.passes"; "pass.moves_tried"; "pass.moves_committed"; "synthesize.contexts" ]
  @ [
      count "sched.schedules";
      count "sched.events_popped";
      count "sched.prepared_builds";
      ratio_higher "sched.prepared_hit_ratio";
      ratio_higher "session.profile_hit_ratio";
      metric Lower "ms" "request.run_ms_p50";
      metric Lower "ms" "request.outside_ms_p50";
      count "request.rejected";
    ]
  @ List.map (fun (name, unit_) -> metric Lower unit_ name) layer_spans
  @ List.map (fun s -> metric Lower "ms" ("stage." ^ s ^ ".ms")) timed_stages
  @ List.map (fun s -> count ("stage." ^ s ^ ".calls")) counted_stages
  @ [ count "trace_events"; count "trace_dropped"; metric Lower "%" "trace_overhead_pct" ]

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
