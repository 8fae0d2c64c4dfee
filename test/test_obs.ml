(* Tests for the hsyn_obs observability library: metrics registry
   (domain-safe shard merge under pool fan-out, snapshots of what was
   written), span tracer (Chrome-trace JSON validity, disabled probes
   that allocate nothing, armed spans at a constant cost, exact self
   time, armed runs identical to disarmed ones), and the
   flight-recorder report (deterministic aggregation of a fixed NDJSON
   stream). *)

module Json = Hsyn_util.Json
module Pool = Hsyn_util.Pool
module Metrics = Hsyn_obs.Metrics
module Trace = Hsyn_obs.Trace
module Report = Hsyn_obs.Report
module Scope = Hsyn_obs.Scope
module Log = Hsyn_obs.Log
module Prom = Hsyn_obs.Prom

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf msg = check (Alcotest.float 1e-9) msg

(* member accessors over parsed JSON; [Option.get] fails the test on a
   missing/mistyped field, which is the point *)
let mem k j = Option.value ~default:Json.Null (Json.member k j)
let geti k j = Option.get (Option.bind (Json.member k j) Json.to_int_opt)
let getf k j = Option.get (Option.bind (Json.member k j) Json.to_float_opt)
let gets k j = Option.get (Option.bind (Json.member k j) Json.to_string_opt)
let getl k j = Option.get (Option.bind (Json.member k j) Json.to_list_opt)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* replace the first occurrence of [needle] in [s] with [repl] *)
let replace_once s needle repl =
  let nh = String.length s and nn = String.length needle in
  let rec go i = if i + nn > nh then None else if String.sub s i nn = needle then Some i else go (i + 1) in
  match go 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ repl ^ String.sub s (i + nn) (nh - i - nn)

(* every test starts from a clean, disabled recorder *)
let fresh () =
  Trace.set_enabled false;
  Metrics.set_enabled false;
  Trace.reset ();
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Json parser *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2 ]);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' ->
      checks "string member" "a\"b\\c" (gets "s" j');
      checki "int member" (-42) (geti "i" j');
      checkf "float member" 1.5 (getf "f" j');
      checki "list member" 2 (List.length (getl "l" j'))

(* Floats render as [Printf]'s [%.1f] (integral, below 1e15) or [%.12g]
   would: the renderer calls the formatting primitive directly, and
   every JSON file the program writes depends on the text. *)
let test_json_float_text () =
  let expect f =
    if Float.is_nan f || Float.abs f = Float.infinity then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f
  in
  let rng = Random.State.make [| 27 |] in
  let values =
    [ 0.; -0.; 1.; -1.; 0.1; 1e-7; 1e15; -1e15; 1e300; 5e-324; 0.30000000000000004; Float.nan;
      Float.infinity; Float.neg_infinity; 13.613753085581006; 1067.1513150035948 ]
    @ List.init 10_000 (fun _ -> Int64.float_of_bits (Random.State.int64 rng Int64.max_int))
    @ List.init 10_000 (fun _ -> Random.State.float rng 2000. -. 1000.)
  in
  List.iter (fun f -> checks (Printf.sprintf "%h" f) (expect f) (Json.to_string (Json.Float f))) values

let test_json_rejects_garbage () =
  checkb "truncated" true (Result.is_error (Json.of_string "{\"a\": [1, 2"));
  checkb "trailing" true (Result.is_error (Json.of_string "{} x"));
  checkb "empty" true (Result.is_error (Json.of_string "   "));
  (* nesting is bounded: the parser gives up one byte past the limit
     instead of recursing through the whole line *)
  (match Json.of_string (String.make 5_000_000 '[') with
  | Ok _ -> Alcotest.fail "5 M nested arrays accepted"
  | Error e ->
      checks "error names the limit at its offset" "nesting deeper than 256 at offset 257" e);
  let parses n = Result.is_ok (Json.of_string (String.make n '[' ^ String.make n ']')) in
  checkb "max_depth nested arrays parse" true (parses Json.max_depth);
  checkb "one more is rejected" false (parses (Json.max_depth + 1))

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_disabled_writes_dropped () =
  fresh ();
  let c = Metrics.counter "t.disabled" in
  let h = Metrics.histogram ~edges:[| 1. |] "t.disabled.h" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.observe h 0.5;
  checki "counter untouched" 0 (Metrics.counter_value c);
  checki "histogram untouched" 0 (Metrics.histogram_view h).Metrics.count

let test_metrics_counter_fanout_exact () =
  fresh ();
  Metrics.set_enabled true;
  let c = Metrics.counter "t.fanout" in
  let per_task = 1000 in
  List.iter
    (fun jobs ->
      Metrics.reset ();
      let pool = Pool.shared jobs in
      ignore
        (Pool.map_array pool
           (fun _ ->
             for _ = 1 to per_task do
               Metrics.incr c
             done)
           (Array.init 32 Fun.id));
      checki (Printf.sprintf "exact sum at jobs=%d" jobs) (32 * per_task) (Metrics.counter_value c))
    [ 1; 2; 4 ];
  fresh ()

let test_metrics_histogram_edges () =
  fresh ();
  Metrics.set_enabled true;
  let h = Metrics.histogram ~edges:[| 1.; 2.; 5. |] "t.hedges" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.0 ];
  let v = Metrics.histogram_view h in
  check (Alcotest.array Alcotest.int) "bucket counts (upper-edge inclusive + overflow)"
    [| 2; 2; 1; 1 |] v.Metrics.counts;
  checki "count" 6 v.Metrics.count;
  checkf "sum" 17.0 v.Metrics.sum;
  checkf "min" 0.5 v.Metrics.min;
  checkf "max" 7.0 v.Metrics.max;
  fresh ()

let test_metrics_histogram_fanout_merge () =
  fresh ();
  Metrics.set_enabled true;
  let h = Metrics.histogram ~edges:[| 10.; 20. |] "t.hmerge" in
  let pool = Pool.shared 4 in
  ignore
    (Pool.map_array pool
       (fun i ->
         for _ = 1 to 100 do
           Metrics.observe h (float_of_int (i mod 3 * 10 + 5))
         done)
       (Array.init 30 Fun.id));
  let v = Metrics.histogram_view h in
  (* i mod 3 = 0/1/2 -> values 5/15/25, ten indices each *)
  check (Alcotest.array Alcotest.int) "merged buckets" [| 1000; 1000; 1000 |] v.Metrics.counts;
  checki "merged count" 3000 v.Metrics.count;
  fresh ()

let test_metrics_kind_clash_raises () =
  fresh ();
  ignore (Metrics.counter "t.kind");
  checkb "re-register as gauge raises" true
    (try
       ignore (Metrics.gauge "t.kind");
       false
     with Invalid_argument _ -> true)

let test_metrics_snapshot_shape () =
  fresh ();
  Metrics.set_enabled true;
  Metrics.add (Metrics.counter "t.snap.c") 3;
  Metrics.set (Metrics.gauge "t.snap.g") 2.5;
  Metrics.observe (Metrics.histogram ~edges:[| 1. |] "t.snap.h") 0.5;
  let s = Metrics.snapshot () in
  checki "schema version" Metrics.schema_version (geti "schema_version" s);
  checks "kind" "hsyn.metrics" (gets "kind" s);
  checki "counter in snapshot" 3 (geti "t.snap.c" (mem "counters" s));
  let h = mem "t.snap.h" (mem "histograms" s) in
  checki "histogram count" 1 (geti "count" h);
  (* deterministic rendering *)
  checks "snapshot deterministic" (Json.to_string s) (Json.to_string (Metrics.snapshot ()));
  fresh ()

(* A snapshot describes what was written since the last reset: a
   registered handle nobody wrote is absent, and so is a counter
   written only before the reset. The Prometheus page still lists
   every registered series. *)
let test_metrics_snapshot_lists_written () =
  fresh ();
  Metrics.set_enabled true;
  let idle = Metrics.counter "t.written.idle" in
  let idle_h = Metrics.histogram "t.written.idle_h" in
  let before = Metrics.counter "t.written.before" in
  let after = Metrics.counter "t.written.after" in
  Metrics.add before 5;
  let has section name s = Json.member name (mem section s) <> None in
  checkb "written counter listed" true (has "counters" "t.written.before" (Metrics.snapshot ()));
  Metrics.reset ();
  Metrics.incr after;
  let s = Metrics.snapshot () in
  checkb "registered, never written: absent" false (has "counters" "t.written.idle" s);
  checkb "histogram never observed: absent" false (has "histograms" "t.written.idle_h" s);
  checkb "written before the reset only: absent" false (has "counters" "t.written.before" s);
  checki "written after the reset: listed" 1 (geti "t.written.after" (mem "counters" s));
  checki "handles stay valid" 0 (Metrics.counter_value before + Metrics.counter_value idle);
  ignore idle_h;
  checkb "Prometheus keeps every registered series" true
    (contains (Prom.render ()) "t_written_idle 0");
  fresh ()

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_disabled_records_nothing () =
  fresh ();
  Trace.span (Trace.probe Trace.Schedule "t.off") (fun () -> ());
  Trace.instant Trace.Pass "t.off.i";
  checki "no events" 0 (List.length (Trace.events ()))

let test_trace_json_validity () =
  fresh ();
  Trace.set_enabled true;
  checki "span result passes through" 41 (Trace.span (Trace.probe Trace.Move "t.span") (fun () -> 41));
  Trace.span (Trace.probe Trace.Power "t.power") (fun () ->
      ignore (Sys.opaque_identity (Array.make 10 0)));
  Trace.instant Trace.Checkpoint "t.marker";
  let j = Trace.to_json () in
  (* the export must round-trip through a strict JSON parser *)
  let j =
    match Json.of_string (Json.to_string j) with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace JSON does not re-parse: %s" e
  in
  checks "displayTimeUnit" "ms" (gets "displayTimeUnit" j);
  let evs = getl "traceEvents" j in
  checki "three events" 3 (List.length evs);
  let pid = Unix.getpid () in
  List.iter
    (fun e ->
      let ph = gets "ph" e in
      checkb "phase is X or i" true (ph = "X" || ph = "i");
      checkb "ts present and non-negative" true (getf "ts" e >= 0.);
      checki "pid is this process" pid (geti "pid" e);
      checkb "tid present" true (Option.bind (Json.member "tid" e) Json.to_int_opt <> None);
      checkb "name present" true (Option.bind (Json.member "name" e) Json.to_string_opt <> None);
      checkb "cat present" true (Option.bind (Json.member "cat" e) Json.to_string_opt <> None);
      if ph = "X" then checkb "dur present on spans" true (getf "dur" e >= 0.)
      else checks "instant scope" "t" (gets "s" e))
    evs;
  checki "no drops" 0 (geti "dropped_events" (mem "otherData" j));
  fresh ()

let test_trace_ring_bounded () =
  fresh ();
  Trace.set_capacity 16;
  Trace.set_enabled true;
  let probes = Array.init 100 (fun i -> Trace.probe Trace.Move (Printf.sprintf "t.ring.%d" (i + 1))) in
  Array.iter (fun p -> Trace.span p (fun () -> ())) probes;
  let evs = Trace.events () in
  checki "ring keeps the newest capacity events" 16 (List.length evs);
  checki "dropped counted" 84 (Trace.dropped ());
  (* the survivors are the most recent spans, still in ascending order *)
  checks "oldest survivor" "t.ring.85" (List.hd evs).Trace.ev_name;
  fresh ();
  Trace.set_capacity 65536

let test_trace_feeds_profile_and_metrics () =
  fresh ();
  Metrics.set_enabled true;
  let probe = Trace.probe Trace.Schedule "t.feeds" in
  let count () = (Metrics.histogram_view (Metrics.histogram "stage.t.feeds")).Metrics.count in
  checki "span returns its body's value" 42 (Trace.span probe (fun () -> 42));
  checki "stage histogram recorded" 1 (count ());
  (* a body that raises is still timed, and the exception escapes *)
  checkb "exception propagates" true
    (match Trace.span probe (fun () -> failwith "boom") with
    | () -> false
    | exception Failure _ -> true);
  checki "raising span recorded" 2 (count ());
  let self_ns = Metrics.counter_value (Metrics.counter "stage.t.feeds.self_ns") in
  checkb "self time recorded" true (self_ns > 0);
  check (Alcotest.float 1e-6) "a span with no child is all self time"
    (Metrics.histogram_view (Metrics.histogram "stage.t.feeds")).Metrics.sum
    (Float.of_int self_ns /. 1e6);
  checki "but no trace events without --trace" 0 (List.length (Trace.events ()));
  fresh ()

(* Self time is kept online, exactly: each span's inclusive time is its
   self time plus its direct children's inclusive time, in integer
   nanoseconds, also when a child's body raises. Outer span [o] holds
   [a] (holding [c]), then [r], whose child [x] raises out through [r]
   into [o], then [b]. Were the raising spans left open, [b] would
   close against the wrong frame and [o]'s sum would break. Inclusive
   nanoseconds come from the trace events, whose microsecond durations
   round back to the integer exactly. *)
let test_trace_self_time_exact () =
  fresh ();
  Metrics.set_enabled true;
  Trace.set_enabled true;
  let p name = Trace.probe Trace.Pass ("t.nest." ^ name) in
  let o = p "o" and a = p "a" and c = p "c" and r = p "r" and x = p "x" and b = p "b" in
  let work () = ignore (Sys.opaque_identity (Array.make 100 0)) in
  Trace.span o (fun () ->
      work ();
      Trace.span a (fun () ->
          work ();
          Trace.span c work);
      (match Trace.span r (fun () -> Trace.span x (fun () -> failwith "inner")) with
      | () -> Alcotest.fail "the exception did not escape"
      | exception Failure _ -> ());
      Trace.span b work);
  let self name = Metrics.counter_value (Metrics.counter ("stage.t.nest." ^ name ^ ".self_ns")) in
  let total name =
    List.fold_left
      (fun acc ev ->
        if ev.Trace.ev_name = "t.nest." ^ name then
          acc + int_of_float (Float.round (ev.Trace.ev_dur_us *. 1000.))
        else acc)
      0 (Trace.events ())
  in
  checki "o = self + a + r + b" (total "o") (self "o" + total "a" + total "r" + total "b");
  checki "a = self + c" (total "a") (self "a" + total "c");
  checki "r = self + x (x raised)" (total "r") (self "r" + total "x");
  List.iter (fun leaf -> checki ("leaf " ^ leaf ^ " is all self") (total leaf) (self leaf)) [ "c"; "x"; "b" ];
  (* the stack is back at the top: a new span has no parent to charge *)
  Trace.span c work;
  checki "o untouched by a later span" (total "o") (self "o" + total "a" + total "r" + total "b");
  fresh ()

(* The disabled path of every probe is one atomic load: no event, no
   closure, no boxed timestamp. Allocation is the deterministic witness
   (a timing bound is not): the moment a disabled probe starts to
   allocate, this fails. *)
let test_disabled_probes_allocate_nothing () =
  fresh ();
  Log.set_level Log.Warn (* the default: debug records are filtered *);
  let body () = () in
  let probe = Trace.probe Trace.Schedule "t.disabled" in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Trace.span probe body
  done;
  for _ = 1 to 100_000 do
    Log.debug "t.disabled"
  done;
  let words = Gc.minor_words () -. before in
  checkf "minor words allocated by 100 000 spans + 100 000 filtered logs" 0. words;
  checki "and nothing recorded" 0 (List.length (Trace.events ()))

(* An armed span costs its probe's resolved handles and a constant
   number of words, whatever the number of spans: no name is built and
   nothing is interned. With metrics armed a span allocates the boxed
   millisecond sample it hands the histogram and the histogram's new
   boxed sum, 2 words each; a trace event adds its record (8 words) and
   its two boxed timestamps (2 words each). *)
let metrics_span_words = 4.
let traced_span_words = metrics_span_words +. 12.

let test_armed_span_constant_cost () =
  fresh ();
  let probe = Trace.probe Trace.Schedule "t.armed" in
  let body () = () in
  let spans = 100_000 in
  let words_per_span () =
    Trace.span probe body;
    let interns = Metrics.intern_count () in
    let before = Gc.minor_words () in
    for _ = 1 to spans do
      Trace.span probe body
    done;
    let words = Gc.minor_words () -. before in
    checki "no handle interned" interns (Metrics.intern_count ());
    words /. Float.of_int spans
  in
  Metrics.set_enabled true;
  let w = words_per_span () in
  checkb (Printf.sprintf "metrics armed: %.2f words per span <= %.0f" w metrics_span_words) true
    (w <= metrics_span_words);
  checki "every span counted" (spans + 1)
    (Metrics.histogram_view (Metrics.histogram "stage.t.armed")).Metrics.count;
  Trace.set_enabled true;
  let w = words_per_span () in
  checkb (Printf.sprintf "metrics and trace armed: %.2f words per span <= %.0f" w traced_span_words)
    true (w <= traced_span_words);
  fresh ()

(* A reduced-effort power synthesis of test1: the design's fingerprint
   and the bits of its area and power. *)
let synth_test1 () =
  let module S = Hsyn_core.Synthesize in
  let module Clib = Hsyn_core.Clib in
  let module Cost = Hsyn_core.Cost in
  let module Suite = Hsyn_benchmarks.Suite in
  let b = Suite.test1 () in
  let lib = Hsyn_modlib.Library.default in
  let config =
    {
      S.default_config with
      S.max_moves = 4;
      max_passes = 1;
      max_candidates = 12;
      trace_length = 6;
      max_clocks = 2;
      clib_effort = { Clib.default_effort with Clib.max_moves = 2; max_passes = 1 };
    }
  in
  let sampling_ns = 2.2 *. S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  match
    Result.bind
      (S.Request.make ~config ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg
         ~objective:Cost.Power ~sampling_ns ())
      S.synthesize
  with
  | Ok r ->
      ( Hsyn_rtl.Design.fingerprint r.S.design,
        Int64.bits_of_float r.S.eval.Cost.area,
        Int64.bits_of_float r.S.eval.Cost.power )
  | Error msg -> Alcotest.failf "synthesis failed: %s" msg

(* Every span, candidate and pass path writes handles resolved when its
   module was initialized: an armed synthesis asks the registry for
   none, so a second identical run interns nothing. *)
let test_armed_run_interns_nothing () =
  fresh ();
  Trace.set_enabled true;
  Metrics.set_enabled true;
  ignore (synth_test1 ());
  let interns = Metrics.intern_count () in
  ignore (synth_test1 ());
  checki "handles interned by the second run" 0 (Metrics.intern_count () - interns);
  checkb "the run was armed" true
    ((Metrics.histogram_view (Metrics.histogram "stage.pass")).Metrics.count > 0);
  fresh ()

(* Arming trace and metrics observes a synthesis without steering it:
   the armed run returns the disarmed run's design, area and power, bit
   for bit. *)
let test_armed_run_identical () =
  let run = synth_test1 in
  fresh ();
  let fp0, area0, power0 = run () in
  Trace.set_enabled true;
  Metrics.set_enabled true;
  let fp1, area1, power1 = run () in
  checkb "the armed run recorded spans" true (Trace.events () <> []);
  fresh ();
  check Alcotest.int64 "design fingerprint" fp0 fp1;
  check Alcotest.int64 "area bits" area0 area1;
  check Alcotest.int64 "power bits" power0 power1

(* ------------------------------------------------------------------ *)
(* Report *)

(* A miniature flight-recorder stream: two contexts, the second wins. *)
let fixture =
  [
    {|{"at_s":0.0,"event":"run_started","dfg":"fixture","objective":"power","sampling_ns":20.0,"contexts_planned":2}|};
    {|{"at_s":0.1,"event":"context_started","index":0,"total":2,"vdd":5.0,"clk_ns":20.0,"deadline_cycles":40}|};
    {|{"at_s":0.2,"event":"move_committed","context":0,"pass":0,"family":"A:select","description":"mult m1 -> slow","gain":1.5,"value":98.5}|};
    {|{"at_s":0.3,"event":"pass_done","context":0,"pass":0,"moves_committed":1,"value":98.5}|};
    {|{"at_s":0.4,"event":"context_finished","index":0,"feasible":true}|};
    {|{"at_s":0.5,"event":"context_started","index":1,"total":2,"vdd":3.3,"clk_ns":25.0,"deadline_cycles":40}|};
    {|{"at_s":0.6,"event":"move_committed","context":1,"pass":0,"family":"A:select","description":"adder a2 -> ripple","gain":2.0,"value":88.0}|};
    {|{"at_s":0.7,"event":"move_committed","context":1,"pass":0,"family":"C:merge","description":"merge u1 u2","gain":3.0,"value":85.0}|};
    {|{"at_s":0.8,"event":"pass_done","context":1,"pass":0,"moves_committed":2,"value":85.0}|};
    {|{"at_s":0.9,"event":"new_incumbent","context":1,"vdd":3.3,"clk_ns":25.0,"value":85.0,"area":120.0,"power":85.0}|};
    {|{"at_s":1.0,"event":"context_finished","index":1,"feasible":true}|};
    {|{"at_s":1.1,"event":"run_finished","completed":true,"contexts_done":2,"contexts_planned":2,"elapsed_s":1.1,"result":{"context":{"vdd":3.3,"clk_ns":25.0,"deadline_cycles":40},"eval":{"area":120.0,"power":85.0},"stats":{"moves_committed":2}}}|};
    {|{"event":"metrics_snapshot","snapshot":{"schema_version":2,"kind":"hsyn.metrics","counters":{"engine.generated":40,"engine.generated.A:select":30,"engine.generated.C:merge":10,"engine.evaluated":24,"engine.evaluated.A:select":18,"engine.evaluated.C:merge":6,"engine.cache_hits":16,"engine.cache_misses":24,"moves.committed.A:select":2,"moves.committed.C:merge":1,"moves.reverted.A:select":4,"stage.schedule.self_ns":2500000,"stage.power.self_ns":5000000},"gauges":{},"histograms":{"stage.schedule":{"edges":[1.0],"counts":[5,0],"count":5,"sum":2.5,"min":0.4,"max":0.6},"stage.power":{"edges":[1.0],"counts":[3,1],"count":4,"sum":7.5,"min":0.5,"max":4.0}}}}|};
  ]

let report () =
  match Report.of_lines fixture with
  | Ok r -> r
  | Error e -> Alcotest.failf "fixture did not aggregate: %s" e

let test_report_aggregates () =
  let r = report () in
  checks "dfg" "fixture" (Option.get r.Report.dfg);
  checki "contexts" 2 r.Report.contexts;
  checki "passes" 2 r.Report.passes;
  checki "total committed" 3 r.Report.total_committed;
  checkf "total gain" 6.5 r.Report.total_gain;
  checkb "metrics seen" true r.Report.has_metrics;
  checki "nothing skipped" 0 r.Report.skipped_lines;
  let fam name =
    match List.find_opt (fun f -> f.Report.fam = name) r.Report.families with
    | Some f -> f
    | None -> Alcotest.failf "family %s missing" name
  in
  let a = fam "A:select" in
  checki "A proposed" 30 a.Report.proposed;
  checki "A evaluated" 18 a.Report.evaluated;
  checki "A committed" 2 a.Report.committed;
  checki "A reverted" 4 a.Report.reverted;
  checkf "A gain" 3.5 a.Report.gain;
  let c = fam "C:merge" in
  checki "C committed" 1 c.Report.committed;
  checkf "C gain" 3.0 c.Report.gain;
  checkf "cache hit rate" 0.4 (Option.get r.Report.cache_hit_rate);
  (match r.Report.stages with
  | [ s0; s1 ] ->
      checks "power dominates" "power" s0.Report.stage;
      checki "power calls" 4 s0.Report.calls;
      checkf "power total ms" 7.5 s0.Report.total_ms;
      checkf "power self ms" 5.0 s0.Report.self_ms;
      checks "then schedule" "schedule" s1.Report.stage;
      checki "schedule calls" 5 s1.Report.calls;
      checkf "schedule self ms" 2.5 s1.Report.self_ms
  | l -> Alcotest.failf "expected two stages, got %d" (List.length l));
  (* the self column and the outside row sum to the run's 1.1 s *)
  let table = Report.render_stages ?wall_s:r.Report.elapsed_s r.Report.stages in
  checkb "wall time printed" true (contains table "(wall 1100.0 ms)");
  checkb "outside row is wall minus self" true (contains table "(outside any span)");
  checkb "outside value" true (contains table "1092.5");
  match r.Report.winner with
  | None -> Alcotest.fail "winner missing"
  | Some w ->
      checki "winning context" 1 (Option.get w.Report.w_context);
      checki "winner committed" 2 w.Report.w_committed;
      checkf "winner value" 85.0 (Option.get w.Report.w_value);
      checki "result committed" 2 (Option.get w.Report.w_result_committed);
      checkb "consistent" true (r.Report.consistent = Some true)

(* The [--stats] block of a snapshot: a family row has no batches,
   which are never attributed to a family; the total row has them. The
   fixture writes no disk hits, evictions or skips and no profile table,
   and each reads 0. *)
let test_render_stats () =
  let snap =
    match
      Json.of_string
        {|{"schema_version":2,"kind":"hsyn.metrics","counters":{"engine.batches":1,"engine.cache_hits":1,"engine.cache_hits.A:select":1,"engine.cache_misses":2,"engine.cache_misses.A:select":2,"engine.evaluated":2,"engine.evaluated.A:select":2,"engine.generated":3,"engine.generated.A:select":3,"engine.power_sims":2,"engine.power_sims.A:select":2,"sched.events_popped":40,"sched.schedules":5},"gauges":{"session.contexts":2.0,"session.cost.capacity":8192.0,"session.cost.evictions":0.0,"session.cost.hits":1.0,"session.cost.misses":2.0,"session.cost.size":2.0},"histograms":{}}|}
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "fixture: %s" e
  in
  let family = "gen 3  eval 2  cache 1/3 (33.3% hit)  disk 0  evict 0  sims 2  skipped 0 (0.0%)" in
  checks "the block"
    (String.concat "\n"
       [
         "  total        " ^ family ^ "  batches 1";
         "  A:select     " ^ family;
         "[sched] schedules: 5, events popped: 40";
         "[session] cost cache (2 ctx): 1/3 (33.3% hit)  evict 0  size 2/8192";
         "[session] profiles: 0/0 (0.0% hit)  evict 0  size 0";
         "";
       ])
    (Report.render_stats snap)

let test_report_deterministic () =
  let a = Json.to_string (Report.to_json (report ())) in
  let b = Json.to_string (Report.to_json (report ())) in
  checks "identical JSON for identical input" a b;
  let r = Report.render (report ()) in
  checkb "render mentions every family" true
    (List.for_all (contains r) [ "A:select"; "C:merge" ])

let test_report_counts_truncated_lines () =
  let r =
    match Report.of_lines (fixture @ [ {|{"at_s":1.2,"event":"run_fin|}; "" ]) with
    | Ok r -> r
    | Error e -> Alcotest.failf "unexpected: %s" e
  in
  checki "truncated tail skipped, blank ignored" 1 r.Report.skipped_lines;
  checki "aggregates unaffected" 3 r.Report.total_committed

let test_report_detects_mismatch () =
  let tampered =
    List.map
      (fun l ->
        if contains l {|"event":"run_finished"|} then
          replace_once l {|"moves_committed":2|} {|"moves_committed":7|}
        else l)
      fixture
  in
  match Report.of_lines tampered with
  | Error e -> Alcotest.failf "unexpected: %s" e
  | Ok r -> checkb "mismatch flagged" true (r.Report.consistent = Some false)

(* A stream without a run_finished line has no result to check the
   recorder against: the trace file passed by mistake, or a run cut
   short. The report says that nothing was checked, in its text and in
   its JSON, rather than reporting the check passed. *)
let test_report_unchecked_without_result () =
  let no_result = List.filter (fun l -> not (contains l {|"event":"run_finished"|})) fixture in
  match Report.of_lines no_result with
  | Error e -> Alcotest.failf "unexpected: %s" e
  | Ok r ->
      let text = Report.render r in
      checkb "the text says so" true
        (contains text "consistency with the run's own result: not checked");
      checkb "the text does not say ok" false
        (contains text "consistency with the run's own result: ok");
      checkb "the JSON says so" true (Json.member "consistent" (Report.to_json r) = Some Json.Null)

let test_report_rejects_empty () =
  checkb "no parseable line is an error" true (Result.is_error (Report.of_lines [ "nope"; "" ]))

(* [Report.load]'s errors name the path once, whichever step fails:
   opening, reading (a directory opens but cannot be read) or parsing. *)
let test_report_load_names_path () =
  let occurrences s sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length s then acc
      else if String.sub s i n = sub then go (i + n) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  let names_once path =
    match Report.load path with
    | Ok _ -> Alcotest.failf "%s loaded" path
    | Error e -> checki (Printf.sprintf "%S names %s once" e path) 1 (occurrences e path)
  in
  names_once "/nonexistent/run.ndjson";
  let dir = Filename.get_temp_dir_name () in
  names_once dir;
  let path = Filename.temp_file "hsyn_obs" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "nope\n";
      close_out oc;
      names_once path)

(* ------------------------------------------------------------------ *)
(* Sink *)

let test_sink_line_atomic () =
  let path = Filename.temp_file "hsyn_obs" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Report.Sink.create path in
      Report.Sink.line s {|{"a":1}|};
      Report.Sink.json s (Json.Obj [ ("b", Json.Int 2) ]);
      (* flushed per line: both lines durable before close *)
      let ic = open_in path in
      let l1 = input_line ic and l2 = input_line ic in
      close_in ic;
      Report.Sink.close s;
      checks "first line" {|{"a":1}|} l1;
      checks "second line" {|{"b":2}|} l2)

(* Four domains blast distinctive lines at one sink; every line of the
   resulting file must be exactly one writer's payload — no partial or
   spliced lines — and all writes must be present. *)
let test_sink_concurrent_writers () =
  let writers = 4 and per_writer = 500 in
  let path = Filename.temp_file "hsyn_obs" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Report.Sink.create path in
      let payload w i = Printf.sprintf {|{"writer":%d,"i":%d,"pad":"%s"}|} w i (String.make (50 + w) 'x') in
      let spawn w =
        Domain.spawn (fun () ->
            for i = 0 to per_writer - 1 do
              Report.Sink.line s (payload w i)
            done)
      in
      let ds = List.init writers spawn in
      List.iter Domain.join ds;
      Report.Sink.close s;
      let ic = open_in path in
      let seen = Hashtbl.create (writers * per_writer) in
      let lines = ref 0 in
      (try
         while true do
           let l = input_line ic in
           incr lines;
           (match Json.of_string l with
           | Ok v ->
               let g k = Option.bind (Json.member k v) Json.to_int_opt in
               (match (g "writer", g "i") with
               | Some w, Some i ->
                   checks "line intact" (payload w i) l;
                   Hashtbl.replace seen (w, i) ()
               | _ -> Alcotest.failf "malformed line: %s" l)
           | Error e -> Alcotest.failf "interleaved/unparseable line %s: %s" l e)
         done
       with End_of_file -> close_in ic);
      checki "total lines" (writers * per_writer) !lines;
      checki "distinct payloads" (writers * per_writer) (Hashtbl.length seen))

(* ------------------------------------------------------------------ *)
(* Scope *)

let test_scope_nesting () =
  checkb "no ambient scope" true (Scope.current () = None);
  Scope.with_scope { Scope.id = 7; tenant = None } (fun () ->
      checki "inner id" 7 (Option.get (Scope.current_id ()));
      Scope.with_scope { Scope.id = 8; tenant = Some "t" } (fun () ->
          checki "nested id" 8 (Option.get (Scope.current_id ())));
      checki "restored after nesting" 7 (Option.get (Scope.current_id ()));
      (* scopes are domain-local: a fresh domain never inherits one *)
      let d = Domain.spawn (fun () -> Scope.current () = None) in
      checkb "domain-local" true (Domain.join d);
      (try Scope.with_scope { Scope.id = 9; tenant = None } (fun () -> raise Exit)
       with Exit -> ());
      checki "restored after exception" 7 (Option.get (Scope.current_id ())));
  checkb "cleared at the end" true (Scope.current () = None)

(* ------------------------------------------------------------------ *)
(* Log *)

let with_log_file f =
  let path = Filename.temp_file "hsyn_log" ".ndjson" in
  Fun.protect
    ~finally:(fun () ->
      Log.set_level Log.Warn;
      Log.set_sink (Report.Sink.of_channel stderr);
      Sys.remove path)
    (fun () ->
      let sink = Report.Sink.create path in
      Log.set_sink sink;
      f ();
      Report.Sink.close sink;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      List.rev !lines)

let test_log_level_filtering () =
  let lines =
    with_log_file (fun () ->
        Log.set_level Log.Warn;
        Log.debug "dropped-debug";
        Log.info "dropped-info";
        Log.warn ~fields:[ ("k", Json.Int 1) ] "kept-warn";
        Log.error "kept-error";
        Log.set_level Log.Debug;
        Log.debug "kept-debug")
  in
  checki "only records at/above the threshold" 3 (List.length lines);
  let recs = List.map (fun l -> Result.get_ok (Json.of_string l)) lines in
  check (Alcotest.list Alcotest.string) "levels in order" [ "warn"; "error"; "debug" ]
    (List.map (gets "level") recs);
  check (Alcotest.list Alcotest.string) "messages" [ "kept-warn"; "kept-error"; "kept-debug" ]
    (List.map (gets "msg") recs);
  let warn = List.hd recs in
  checki "caller fields carried" 1 (geti "k" warn);
  checkb "timestamp present" true (getf "ts" warn > 0.);
  checkb "no scope, no request_id" true (Json.member "request_id" warn = None)

let test_log_scope_injection () =
  let lines =
    with_log_file (fun () ->
        Log.set_level Log.Info;
        Scope.with_scope
          { Scope.id = 31; tenant = Some "acme" }
          (fun () -> Log.info "scoped"))
  in
  let r = Result.get_ok (Json.of_string (List.hd lines)) in
  checki "request_id injected" 31 (geti "request_id" r);
  checks "tenant injected" "acme" (gets "tenant" r)

(* Four domains log under their own scopes into one file: every line
   must parse (no splicing) and carry its writer's request id. *)
let test_log_concurrent_domains () =
  let writers = 4 and per_writer = 200 in
  let lines =
    with_log_file (fun () ->
        Log.set_level Log.Info;
        let spawn w =
          Domain.spawn (fun () ->
              Scope.with_scope
                { Scope.id = w + 1; tenant = None }
                (fun () ->
                  for i = 0 to per_writer - 1 do
                    Log.info ~fields:[ ("i", Json.Int i) ] (Printf.sprintf "w%d" (w + 1))
                  done))
        in
        let ds = List.init writers spawn in
        List.iter Domain.join ds)
  in
  checki "all records written" (writers * per_writer) (List.length lines);
  let seen = Hashtbl.create (writers * per_writer) in
  List.iter
    (fun l ->
      match Json.of_string l with
      | Error e -> Alcotest.failf "interleaved/unparseable line %s: %s" l e
      | Ok r ->
          let w = geti "request_id" r and i = geti "i" r in
          checks "msg matches writer's scope" (Printf.sprintf "w%d" w) (gets "msg" r);
          Hashtbl.replace seen (w, i) ())
    lines;
  checki "distinct records" (writers * per_writer) (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Metrics labels *)

let test_metrics_labels_interned () =
  fresh ();
  Metrics.set_enabled true;
  (* label order is canonicalized: both spellings are one series *)
  let a = Metrics.counter ~labels:[ ("b", "2"); ("a", "1") ] "labtest.requests" in
  let b = Metrics.counter ~labels:[ ("a", "1"); ("b", "2") ] "labtest.requests" in
  Metrics.incr a;
  Metrics.add b 2;
  (* the bare name is its own, distinct series *)
  Metrics.incr (Metrics.counter "labtest.requests");
  let counters = mem "counters" (Metrics.snapshot ()) in
  checki "labeled series merged under the canonical key" 3
    (geti {|labtest.requests{a="1",b="2"}|} counters);
  checki "unlabeled series separate" 1 (geti "labtest.requests" counters)

let test_metrics_label_cardinality_cap () =
  fresh ();
  Metrics.set_enabled true;
  let overflowing = 6 in
  for i = 0 to Metrics.max_label_sets + overflowing - 1 do
    Metrics.incr (Metrics.counter ~labels:[ ("i", string_of_int i) ] "labtest.cap")
  done;
  let counters = mem "counters" (Metrics.snapshot ()) in
  let cap_keys =
    match counters with
    | Json.Obj fs -> List.filter (fun (k, _) -> String.starts_with ~prefix:"labtest.cap{" k) fs
    | _ -> []
  in
  checki "at most max_label_sets + overflow series" (Metrics.max_label_sets + 1)
    (List.length cap_keys);
  checki "beyond-cap label sets collapse into the overflow series" overflowing
    (geti {|labtest.cap{overflow="true"}|} counters)

let test_metrics_hist_quantile () =
  fresh ();
  Metrics.set_enabled true;
  let h = Metrics.histogram ~edges:[| 10.; 20.; 30. |] "labtest.quant" in
  List.iter (Metrics.observe h) [ 1.; 12.; 15.; 22.; 35. ];
  let v = Metrics.histogram_view h in
  checkf "p50 is its bucket's upper edge" 20. (Metrics.hist_quantile 50. v);
  checkf "p99 in the overflow bucket reports max" 35. (Metrics.hist_quantile 99. v);
  checkf "p0 clamps to the first bucket edge" 10. (Metrics.hist_quantile 0. v);
  let empty = Metrics.histogram_view (Metrics.histogram ~edges:[| 1. |] "labtest.quant_empty") in
  checkb "empty view is nan" true (Float.is_nan (Metrics.hist_quantile 50. empty))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let prom_sample_valid line =
  match String.index_opt line ' ' with
  | None -> false
  | Some i ->
      let name_part = String.sub line 0 i in
      let value_part = String.sub line (i + 1) (String.length line - i - 1) in
      let name, braces_ok =
        match String.index_opt name_part '{' with
        | None -> (name_part, true)
        | Some j -> (String.sub name_part 0 j, name_part.[String.length name_part - 1] = '}')
      in
      let name_ok =
        name <> ""
        && String.for_all
             (fun c ->
               (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_')
             name
        && not (name.[0] >= '0' && name.[0] <= '9')
      in
      let value_ok =
        value_part = "+Inf" || value_part = "-Inf" || value_part = "NaN"
        || float_of_string_opt value_part <> None
      in
      name_ok && braces_ok && value_ok

let test_prom_exposition () =
  fresh ();
  Metrics.set_enabled true;
  Metrics.add (Metrics.counter ~labels:[ ("tenant", "acme"); ("status", "ok") ] "promtest.requests") 3;
  Metrics.set (Metrics.gauge "promtest.depth") 2.5;
  let h = Metrics.histogram ~edges:[| 1.; 10. |] "promtest.lat_ms" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 100. ];
  let text = Prom.render () in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  (* grammar: every line is a comment or a well-formed sample *)
  List.iter
    (fun l ->
      if not (String.starts_with ~prefix:"# " l) then
        checkb (Printf.sprintf "sample line %S well-formed" l) true (prom_sample_valid l))
    lines;
  (* golden on this test's own metrics (the registry is process-global,
     so other suites' series are filtered out, not asserted on) *)
  let mine = List.filter (fun l -> contains l "promtest_") lines in
  check (Alcotest.list Alcotest.string) "exposition"
    [
      "# TYPE promtest_depth gauge";
      "promtest_depth 2.5";
      "# TYPE promtest_lat_ms histogram";
      {|promtest_lat_ms_bucket{le="1"} 1|};
      {|promtest_lat_ms_bucket{le="10"} 2|};
      {|promtest_lat_ms_bucket{le="+Inf"} 3|};
      "promtest_lat_ms_sum 105.5";
      "promtest_lat_ms_count 3";
      "# TYPE promtest_requests counter";
      {|promtest_requests{status="ok",tenant="acme"} 3|};
    ]
    mine

(* ------------------------------------------------------------------ *)
(* Scoped tracing *)

let test_trace_scoped_events () =
  fresh ();
  Trace.set_enabled true;
  Scope.with_scope { Scope.id = 42; tenant = None } (fun () ->
      Trace.span (Trace.probe Trace.Pass "scoped_outer") (fun () ->
          Trace.span (Trace.probe Trace.Schedule "scoped_inner") (fun () -> ())));
  Trace.span (Trace.probe Trace.Pass "unscoped") (fun () -> ());
  let evs = Trace.scoped_events 42 in
  checki "exactly the scoped spans" 2 (List.length evs);
  let tree = Trace.render_tree evs in
  checkb "outer at depth one" true (contains tree "  scoped_outer [pass]");
  checkb "inner nested deeper" true (contains tree "    scoped_inner [schedule]");
  checkb "unscoped span excluded" false (contains tree "unscoped");
  let json = Json.to_string (Trace.to_json ()) in
  checkb "export carries request_id args" true (contains json {|"request_id":42|});
  fresh ()

(* ------------------------------------------------------------------ *)

let tc = Alcotest.test_case

let () =
  Alcotest.run "hsyn_obs"
    [
      ( "json",
        [
          tc "roundtrip" `Quick test_json_roundtrip;
          tc "float text" `Quick test_json_float_text;
          tc "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "metrics",
        [
          tc "disabled writes dropped" `Quick test_metrics_disabled_writes_dropped;
          tc "counter fan-out exact" `Quick test_metrics_counter_fanout_exact;
          tc "histogram edges" `Quick test_metrics_histogram_edges;
          tc "histogram fan-out merge" `Quick test_metrics_histogram_fanout_merge;
          tc "kind clash raises" `Quick test_metrics_kind_clash_raises;
          tc "snapshot shape" `Quick test_metrics_snapshot_shape;
          tc "snapshot lists only what was written" `Quick test_metrics_snapshot_lists_written;
          tc "labels interned" `Quick test_metrics_labels_interned;
          tc "label cardinality cap" `Quick test_metrics_label_cardinality_cap;
          tc "hist quantile" `Quick test_metrics_hist_quantile;
        ] );
      ( "scope",
        [ tc "nesting and domain-locality" `Quick test_scope_nesting ] );
      ( "log",
        [
          tc "level filtering" `Quick test_log_level_filtering;
          tc "scope injection" `Quick test_log_scope_injection;
          tc "concurrent domains line-atomic" `Quick test_log_concurrent_domains;
        ] );
      ( "prom", [ tc "exposition" `Quick test_prom_exposition ] );
      ( "trace",
        [
          tc "disabled records nothing" `Quick test_trace_disabled_records_nothing;
          tc "json validity" `Quick test_trace_json_validity;
          tc "ring bounded" `Quick test_trace_ring_bounded;
          tc "feeds profile and metrics" `Quick test_trace_feeds_profile_and_metrics;
          tc "self time exact under nesting and raise" `Quick test_trace_self_time_exact;
          tc "scoped events and tree" `Quick test_trace_scoped_events;
          tc "disabled probes allocate nothing" `Quick test_disabled_probes_allocate_nothing;
          tc "armed spans cost a constant" `Quick test_armed_span_constant_cost;
          tc "armed run identical to disarmed" `Quick test_armed_run_identical;
          tc "second armed run interns nothing" `Quick test_armed_run_interns_nothing;
        ] );
      ( "report",
        [
          tc "aggregates fixture" `Quick test_report_aggregates;
          tc "render stats fixture" `Quick test_render_stats;
          tc "deterministic" `Quick test_report_deterministic;
          tc "counts truncated lines" `Quick test_report_counts_truncated_lines;
          tc "detects result mismatch" `Quick test_report_detects_mismatch;
          tc "unchecked without a result" `Quick test_report_unchecked_without_result;
          tc "rejects empty stream" `Quick test_report_rejects_empty;
          tc "load errors name the path once" `Quick test_report_load_names_path;
        ] );
      ( "sink",
        [
          tc "line atomic" `Quick test_sink_line_atomic;
          tc "concurrent writers" `Quick test_sink_concurrent_writers;
        ] );
    ]
