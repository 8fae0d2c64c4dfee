(* One run of a workload: set-up, timed passes, checks, and the metrics
   of an untraced or a traced run. *)

module W = Workload
module Stats = Hsyn_util.Stats

type outcome = {
  metrics : (string * float) list;  (** in catalog order *)
  info : (string * float * string) list;  (** workload-specific extras: name, value, unit *)
  attempted : int;
  failures : string list;  (** one per wrong, missing or refused answer *)
}

let failed o = min o.attempted (List.length o.failures)

(* Puts [raw] in catalog order; a catalog metric missing from it is a
   harness bug and raises. *)
let in_order catalog raw = List.map (fun m -> (m.Catalog.name, List.assoc m.Catalog.name raw)) catalog

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic))

(* VmHWM of this process, in MB. A /proc file has no length, so it is
   read line by line. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        let l = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> Float.of_int kb /. 1024.)
        else find ()
      in
      find ())

let log_path name = Filename.concat W.out_dir (name ^ ".daemon.ndjson")

(* Set-up takes milliseconds, so an untraced run repeats it for about
   this long in all and reports the median. *)
let setup_budget_s = 1.0

(* Builds the inputs (serve_mix also starts its daemon and waits for
   the first scrape answered); returns the time taken and the inputs. *)
let setup ~name make =
  W.ensure_out_dir ();
  let t0 = Unix.gettimeofday () in
  let shape = make () in
  match shape with
  | W.Batch _ -> (Unix.gettimeofday () -. t0, shape)
  | W.Serve _ ->
      let d = W.start_daemon ~log_path:(log_path name) in
      let dt = Unix.gettimeofday () -. t0 in
      W.stop_daemon d;
      (dt, shape)

(* The times of set-ups repeated until [budget_s] has passed. *)
let setups ~budget_s ~name make =
  let start = Unix.gettimeofday () in
  let rec reps acc =
    if Unix.gettimeofday () -. start >= budget_s then acc else reps (fst (setup ~name make) :: acc)
  in
  reps []

(* Runs the timed part of one pass; the returned function checks it.
   A serve_mix pass sends its requests in an order drawn from [order]. *)
let pass ~name ~order shape =
  (* so that the garbage of earlier passes does not pace this one *)
  Gc.full_major ();
  match shape with
  | W.Batch cases -> W.batch_pass cases
  | W.Serve items -> W.serve_pass ~log_path:(log_path name) (W.shuffled order items)

let solo_sample = 16

(* The latency percentile that [request_ms_p75] reports, and the
   requests a run sends at least, so that ten of them lie beyond it. *)
let latency_percentile = 75.
let min_requests = Pstats.samples_for latency_percentile

(* The passes of an untraced run: as many as take [seconds] on the
   reference host, and at least as many as send [min_requests]
   requests. The count does not depend on the speed of the host or of
   the commit measured, so both sides of a comparison do the same work
   and their percentiles and peak memory cover the same requests. *)
let pass_count ~min_requests ~seconds ~reference_pass_s shape =
  let per_pass = max 1 (W.requests shape) in
  max (int_of_float (Float.round (seconds /. reference_pass_s))) ((min_requests + per_pass - 1) / per_pass)

(* One latency per request sent: the median of the latencies of the
   same request (label) in the run. Every pass repeats every request
   (and in serve_mix both clients send it), and on a shared host a few
   samples run through a stall of the machine; a percentile taken just
   below a gap between the requests' times, as p75 is in area_flat,
   follows such samples, while the median of a request's repeats drops
   them. *)
let repeat_medians samples =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])) samples;
  List.map (fun (k, _) -> Stats.median (Hashtbl.find tbl k)) samples

(* Each serve_mix pass sends its requests in another order. Pass time
   and the objective are medians over passes; latencies are those of
   every request of every pass, each taken by [repeat_medians]. The
   set-up repeats are spread over the run, a share before the first
   pass and after each one, since the host's speed changes within
   seconds and set-up time follows it more than pass time does. *)
let untraced ?(setup_budget_s = setup_budget_s) ?(min_requests = min_requests) ~name ~seed ~seconds
    ~reference_pass_s make =
  let first, shape = setup ~name make in
  let n = pass_count ~min_requests ~seconds ~reference_pass_s shape in
  let more () = setups ~budget_s:(setup_budget_s /. Float.of_int (n + 1)) ~name make in
  let setup_times = ref (first :: more ()) in
  let order = Hsyn_util.Rng.create seed in
  let passes =
    List.init n (fun _ ->
        let p = pass ~name ~order shape () in
        setup_times := more () @ !setup_times;
        (* the designs and the daemon's session are only needed when traced *)
        { p with W.subjects = []; shared = None })
  in
  let setup_s = Stats.median !setup_times in
  let solo_failures =
    match shape with
    | W.Serve _ -> W.solo_check ~seed ~n:solo_sample (List.hd passes).W.served
    | W.Batch _ -> []
  in
  let over f = Stats.median (List.map f passes) in
  let latencies = repeat_medians (List.concat_map (fun (p : W.pass) -> p.W.latency_ms) passes) in
  (match Pstats.tail_percentile (List.length latencies) with
  | Some p when p >= latency_percentile -> ()
  | _ ->
      Printf.eprintf "perf: request_ms_p75 rests on %d latencies, fewer than the %d that leave ten beyond it\n%!"
        (List.length latencies) min_requests);
  let metrics =
    in_order Catalog.end_to_end
      [
        ("setup_s", setup_s);
        ("pass_s", over (fun p -> p.W.wall_s));
        ("request_ms_geomean", Stats.geomean latencies);
        ("request_ms_p75", Stats.percentile latency_percentile latencies);
        (* sorted, so that the same answers give the same bits *)
        ("objective_geomean", over (fun p -> Stats.geomean (List.sort compare p.W.objectives)));
        ("peak_rss_mb", peak_rss_mb ());
      ]
  in
  let info =
    [
      ("passes", Float.of_int (List.length passes), "count");
      ("requests", Float.of_int (List.length latencies), "count");
      ("request_ms_p50", Stats.median latencies, "ms");
    ]
    @
    match shape with
    | W.Batch _ -> []
    | W.Serve _ -> [ ("serve_rps", over (fun p -> Float.of_int (List.length p.W.latency_ms) /. p.W.wall_s), "1/s") ]
  in
  {
    metrics;
    info;
    attempted = List.fold_left (fun n p -> n + p.W.attempted) 0 passes;
    failures = List.concat_map (fun p -> p.W.failures) passes @ solo_failures;
  }

let layer_subjects = 8

(* A warm-up pass, one untraced pass (the base of
   [trace_overhead_pct]), one traced pass, then timed calls into each
   layer; all spans go to [_perf/<name>.trace.json]. *)
let traced ~name ~seed make =
  let _, shape = setup ~name make in
  (* every pass sends serve_mix's requests in the same order *)
  let order () = Hsyn_util.Rng.create seed in
  let warm_up = pass ~name ~order:(order ()) shape () in
  let base = pass ~name ~order:(order ()) shape () in
  Layers.arm ();
  let finish = pass ~name ~order:(order ()) shape in
  let clock = Layers.disarm () in
  let p = finish () in
  let counts = Layers.pass_metrics p in
  let subjects =
    match (shape, p.W.shared) with
    | W.Serve items, Some session -> W.serve_subjects session items layer_subjects
    | _ -> p.W.subjects
  in
  let spans = Layers.layer_metrics subjects in
  let events = Layers.write_trace (Filename.concat W.out_dir (name ^ ".trace.json")) ~clock in
  {
    metrics =
      in_order Catalog.per_layer
      @@ counts @ spans
      @ [
          ("trace_events", Float.of_int events);
          ("trace_dropped", Float.of_int (Hsyn_obs.Trace.dropped ()));
          ("trace_overhead_pct", 100. *. ((p.W.wall_s /. base.W.wall_s) -. 1.));
        ];
    info = [];
    attempted = warm_up.W.attempted + base.W.attempted + p.W.attempted;
    failures = warm_up.W.failures @ base.W.failures @ p.W.failures;
  }
