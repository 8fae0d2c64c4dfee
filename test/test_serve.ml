(* Tests for the hsyn serve daemon and the Wire request codec: JSON
   round-trips with strict field checking, served-vs-solo result
   identity over a live socket, admission-control rejects, server-side
   deadline clamps firing mid-stream, the pool-size clamp, malformed
   input survival, the metrics endpoint, and the clean stop/drain
   path. *)

module Wire = Hsyn_core.Wire
module Budget = Hsyn_core.Budget
module Cost = Hsyn_core.Cost
module S = Hsyn_core.Synthesize
module Session = Hsyn_core.Session
module Engine = Hsyn_core.Engine
module Clib = Hsyn_core.Clib
module Serve = Hsyn_serve.Serve
module Top = Hsyn_serve.Top
module Suite = Hsyn_benchmarks.Suite
module Library = Hsyn_modlib.Library
module Json = Hsyn_util.Json
module Log = Hsyn_obs.Log
module Report = Hsyn_obs.Report
module Trace = Hsyn_obs.Trace

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let gets k j = Option.get (Option.bind (Json.member k j) Json.to_string_opt)

(* cheap effort: every serve test below synthesizes tiny graphs only *)
let test_config =
  {
    S.default_config with
    S.max_moves = 4;
    max_passes = 1;
    max_candidates = 12;
    trace_length = 6;
    max_clocks = 2;
    clib_effort =
      { Hsyn_core.Clib.default_effort with Hsyn_core.Clib.max_moves = 2; max_passes = 1 };
  }

let test1_doc ?(objective = Cost.Area) () =
  Wire.make_doc ~objective ~timing:(Wire.Laxity 2.2) ~config:test_config (Wire.Bench "test1")

(* ------------------------------------------------------------------ *)
(* Wire codec round-trips *)

let roundtrip_doc name doc =
  let json = Wire.doc_to_json doc in
  match Wire.doc_of_json json with
  | Error msg -> Alcotest.failf "%s did not parse back: %s" name msg
  | Ok doc' ->
      checks (name ^ " round-trips to the same JSON") (Json.to_string json)
        (Json.to_string (Wire.doc_to_json doc'))

let test_wire_doc_roundtrip () =
  roundtrip_doc "default doc" (Wire.make_doc (Wire.Bench "test1"));
  roundtrip_doc "bench doc" (test1_doc ~objective:Cost.Power ());
  roundtrip_doc "program doc"
    (Wire.make_doc ~objective:Cost.Power
       ~timing:(Wire.Sampling_ns 480.) ~flatten:true
       (Wire.Program { text = "dfg t\n  input a\n  op s add a a\n  output y s\nend\n"; graph = Some "t" }));
  let budget =
    match Budget.make ~deadline_s:1.5 ~max_contexts:2 () with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  roundtrip_doc "budgeted doc" (Wire.make_doc ~budget (Wire.Bench "iir"));
  let config = { test_config with S.vdd_candidates = [ 5.0; 3.3 ]; max_clocks = 1 } in
  roundtrip_doc "config doc" (Wire.make_doc ~config (Wire.Bench "dct"));
  roundtrip_doc "tenant doc" (Wire.make_doc ~tenant:"acme" (Wire.Bench "test1"));
  (* the tenant field is additive: absent from untenanted documents *)
  checkb "no tenant, no field" false
    (contains (Json.to_string (Wire.doc_to_json (test1_doc ()))) "tenant");
  checkb "tenant serialized when present" true
    (contains (Json.to_string (Wire.doc_to_json (Wire.make_doc ~tenant:"acme" (Wire.Bench "t")))) {|"tenant":"acme"|})

let test_wire_rejects_unknown_field () =
  let fields = match Wire.doc_to_json (test1_doc ()) with Json.Obj f -> f | _ -> [] in
  let in_obj name extra =
    List.map (function k, Json.Obj c when k = name -> (k, Json.Obj (c @ extra)) | kv -> kv) fields
  in
  (* fields that older writers emitted (all inputs but the first) are
     rejected like any unknown field, never silently ignored *)
  List.iter
    (fun (field, doc) ->
      match Wire.doc_of_json (Json.Obj doc) with
      | Ok _ -> Alcotest.failf "unknown field %s accepted" field
      | Error msg -> checkb ("error names " ^ field) true (contains msg field))
    [
      ("bogus", fields @ [ ("bogus", Json.Int 1) ]);
      ("portfolio", fields @ [ ("portfolio", Json.Int 2) ]);
      ("strategy", in_obj "config" [ ("strategy", Json.Int 0) ]);
      ("config.clk_candidates", in_obj "config" [ ("clk_candidates", Json.Null) ]);
      ("budget.max_moves", in_obj "budget" [ ("max_moves", Json.Int 7) ]);
      ("budget.max_passes", in_obj "budget" [ ("max_passes", Json.Int 3) ]);
    ];
  match Wire.doc_of_string "{\"kind\":\"nope\"}" with
  | Ok _ -> Alcotest.fail "wrong kind accepted"
  | Error _ -> ()

let test_wire_error_roundtrip () =
  List.iter
    (fun e ->
      match Wire.error_of_json (Wire.error_to_json e) with
      | Error msg -> Alcotest.failf "error did not parse back: %s" msg
      | Ok e' ->
          checks "error round-trips"
            (Json.to_string (Wire.error_to_json e))
            (Json.to_string (Wire.error_to_json e')))
    [
      Wire.error Wire.Bad_request "no such field";
      Wire.error ~retry_after_s:0.25 Wire.Overloaded "try later";
      Wire.error Wire.Shutting_down "draining";
      Wire.error Wire.Failed "infeasible";
      Wire.error Wire.Internal "oops";
    ]

(* ------------------------------------------------------------------ *)
(* live-server helpers *)

let sock_n = ref 0

let tmp_sock () =
  incr sock_n;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hsyn-test-serve-%d-%d.sock" (Unix.getpid ()) !sock_n)

(* run [f] against a live server, always stopping and joining it *)
let with_server ?session ?(config = Serve.default_config) f =
  let server =
    match Serve.create ?session ~config (Serve.Unix_socket (tmp_sock ())) with
    | Ok s -> s
    | Error msg -> Alcotest.failf "serve create failed: %s" msg
  in
  let d = Domain.spawn (fun () -> Serve.run server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Domain.join d)
    (fun () -> f server (Serve.address server))

let last = function [] -> Alcotest.fail "empty response" | lines -> List.nth lines (List.length lines - 1)

let request_lines addr doc =
  match Serve.Client.request ~timeout_s:60. addr doc with
  | Ok lines -> lines
  | Error msg -> Alcotest.failf "client request failed: %s" msg

let parse line = match Json.of_string line with Ok j -> j | Error m -> Alcotest.failf "bad JSON line %S: %s" line m

(* ------------------------------------------------------------------ *)
(* served-vs-solo identity and event streaming *)

(* concurrent tenants on the shared session: one client domain per
   document, all in flight at once (the default 2 workers plus a queue
   of 8 admit them all), and each served final equals a solo run —
   stats included, but for the engine's counts; the first two
   documents are identical *)
let test_served_identical_to_solo () =
  let inline =
    let text = Hsyn_dfg.Text.to_string (Hsyn_fuzz.Gen.program (Hsyn_util.Rng.create 12)) in
    Wire.make_doc ~objective:Cost.Power ~timing:(Wire.Laxity 2.2) ~config:test_config
      (Wire.Program { text; graph = None })
  in
  with_server (fun _ addr ->
      let docs = [ test1_doc (); test1_doc (); test1_doc ~objective:Cost.Power (); inline ] in
      let clients = List.map (fun doc -> Domain.spawn (fun () -> request_lines addr doc)) docs in
      List.iter2
        (fun doc client ->
          let lines = Domain.join client in
          let final = last lines in
          checks "final line is a result" "hsyn.result" (gets "kind" (parse final));
          checkb "events streamed before the final line" true (List.length lines > 1);
          checks "served final = solo final (canonical)"
            (Serve.canonical_final (Serve.solo_final Serve.default_config doc))
            (Serve.canonical_final final))
        docs clients)

let test_shared_session_keeps_identity () =
  (* the second, cache-warmed run of the same doc must serve the very
     same canonical final as the cold one *)
  with_server (fun _ addr ->
      let doc = test1_doc () in
      let a = Serve.canonical_final (last (request_lines addr doc)) in
      let b = Serve.canonical_final (last (request_lines addr doc)) in
      checks "warm == cold" a b)

(* ------------------------------------------------------------------ *)
(* protocol errors never kill the daemon *)

let test_malformed_request_survives () =
  with_server (fun server addr ->
      (match Serve.Client.raw ~timeout_s:10. addr "this is not json" with
      | Error msg -> Alcotest.failf "raw send failed: %s" msg
      | Ok lines ->
          let j = parse (last lines) in
          checks "typed error line" "hsyn.error" (gets "kind" j);
          checks "bad_request code" "bad_request" (gets "code" j));
      (match Serve.Client.raw ~timeout_s:10. addr "{\"kind\":\"hsyn.request\",\"schema_version\":1,\"source\":{\"bench\":\"no-such-bench\"}}" with
      | Error msg -> Alcotest.failf "raw send failed: %s" msg
      | Ok lines -> checks "unknown bench is bad_request" "bad_request" (gets "code" (parse (last lines))));
      (* 1 MB of nested arrays: rejected at the JSON depth limit *)
      (match Serve.Client.raw ~timeout_s:10. addr (String.make 1_000_000 '[') with
      | Error msg -> Alcotest.failf "raw send failed: %s" msg
      | Ok lines ->
          let j = parse (last lines) in
          checks "deep nesting is bad_request" "bad_request" (gets "code" j);
          checks "rejected at the limit" "invalid JSON: nesting deeper than 256 at offset 257"
            (gets "message" j));
      (* an inline program the registry refuses: two variants of one
         behavior with different interfaces *)
      let program text =
        Json.to_string
          (Wire.doc_to_json
             (Wire.make_doc ~objective:Cost.Power ~timing:(Wire.Laxity 2.2) ~config:test_config
                (Wire.Program { text; graph = None })))
      in
      let mismatched =
        "behavior f variant f1\n  input a\n  input b\n  op s add a b\n  output y s\nend\n\
         behavior f variant f2\n  input a\n  op s neg a\n  output y s\nend\n\
         dfg top\n  input x\n  input y\n  call c1 f 1 x y\n  output o c1\nend\n"
      in
      (match Serve.Client.raw ~timeout_s:10. addr (program mismatched) with
      | Error msg -> Alcotest.failf "refused program: %s" msg
      | Ok lines ->
          let j = parse (last lines) in
          checks "refused program is bad_request" "bad_request" (gets "code" j);
          checks "names the refusal"
            "program line 7: Registry.register: variant f2 of f has mismatched interface"
            (gets "message" j));
      (* calls that do not resolve: refused before synthesis starts,
         with the registry's call check's message; and an output count
         too large to allocate, refused by the parser at the call *)
      List.iter
        (fun (what, text, message) ->
          match Serve.Client.raw ~timeout_s:10. addr (program text) with
          | Error msg -> Alcotest.failf "%s: %s" what msg
          | Ok lines ->
              let j = parse (last lines) in
              checks (what ^ " is bad_request") "bad_request" (gets "code" j);
              checks (what ^ ": the call check's message") message (gets "message" j))
        [
          ( "undefined behavior",
            "dfg top\n  input x\n  call c1 nosuch 1 x\n  output o c1\nend\n",
            "top calls unregistered behavior nosuch" );
          ( "wrong arity",
            "behavior f variant f1\n  input a\n  input b\n  op s add a b\n  output y s\nend\n\
             dfg top\n  input x\n  call c1 f 1 x\n  output o c1\nend\n",
            "top: call c1 expects 2 inputs" );
          ( "recursive behavior",
            "behavior f variant f1\n  input a\n  call c f 1 a\n  output y c\nend\n\
             dfg top\n  input x\n  call c1 f 1 x\n  output o c1\nend\n",
            "recursive call cycle through behavior f" );
          ( "huge output count",
            "dfg top\n  input x\n  call c1 f 4611686018427387903 x\n  output o c1\nend\n",
            "program line 3: call \"c1\" has 4611686018427387903 outputs, more than the program's 3 \
             statements" );
        ];
      (* an exception that escapes the run: a trace length too large to
         allocate, which [Trace.generate] refuses with Invalid_argument.
         The worker answers [internal] and closes the connection instead
         of dropping it. This trigger moves again once [trace_length]
         is bounded at the request. *)
      (match
         Serve.Client.raw ~timeout_s:10. addr
           (Json.to_string
              (Wire.doc_to_json
                 (Wire.make_doc ~objective:Cost.Area ~timing:(Wire.Laxity 2.2)
                    ~config:{ test_config with S.trace_length = max_int }
                    (Wire.Bench "test1"))))
       with
      | Error msg -> Alcotest.failf "escaping exception: %s" msg
      | Ok lines -> checks "escaping exception is internal" "internal" (gets "code" (parse (last lines))));
      (* the daemon still serves after all nine *)
      let final = last (request_lines addr (test1_doc ())) in
      checks "daemon survives" "hsyn.result" (gets "kind" (parse final));
      let stats = Serve.stats server in
      checki "all nine errors counted" 9 stats.Serve.errors)

(* ------------------------------------------------------------------ *)
(* admission control *)

let test_admission_rejects_when_full () =
  (* one worker, no queue: a connection that holds the worker (by not
     sending its line) forces the next one onto the reject path *)
  let config =
    { Serve.default_config with Serve.max_inflight = 1; max_queue = 0; retry_after_s = 0.125 }
  in
  with_server ~config (fun server addr ->
      let path = match addr with Serve.Unix_socket p -> p | _ -> Alcotest.fail "unix socket expected" in
      let hold = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close hold)
        (fun () ->
          Unix.connect hold (Unix.ADDR_UNIX path);
          (* wait until the held connection occupies the single worker *)
          let rec wait n =
            let s = Serve.stats server in
            if s.Serve.in_flight + s.Serve.queued >= 1 then ()
            else if n = 0 then Alcotest.fail "held connection never admitted"
            else (Unix.sleepf 0.02; wait (n - 1))
          in
          wait 250;
          match Serve.Client.request ~timeout_s:10. addr (test1_doc ()) with
          | Error msg -> Alcotest.failf "probe failed: %s" msg
          | Ok lines ->
              let j = parse (last lines) in
              checks "typed reject" "hsyn.error" (gets "kind" j);
              checks "overloaded code" "overloaded" (gets "code" j);
              let retry = Option.bind (Json.member "retry_after_s" j) Json.to_float_opt in
              checkb "carries the retry-after hint" true (retry = Some 0.125));
      let stats = Serve.stats server in
      checkb "reject was counted" true (stats.Serve.rejected >= 1))

(* ------------------------------------------------------------------ *)
(* A request's pool sizes are clamped to the machine's domain count.
   Checked on the decoded document alone: a request with an unclamped
   size is never run. *)
let test_jobs_clamp () =
  let line =
    {|{"kind":"hsyn.request","schema_version":1,"source":{"bench":"test1"},"config":{"engine":{"jobs":1000000},"clib":{"engine":{"jobs":1000000}}}}|}
  in
  let doc = match Wire.doc_of_string line with Ok d -> d | Error m -> Alcotest.fail m in
  checki "the document asks for 1 000 000" 1_000_000 doc.Wire.config.S.engine.Engine.jobs;
  let cap = Domain.recommended_domain_count () in
  let clamped = Serve.clamp_doc Serve.default_config doc in
  checki "engine.jobs clamped" cap clamped.Wire.config.S.engine.Engine.jobs;
  checki "clib engine.jobs clamped" cap
    clamped.Wire.config.S.clib_effort.Clib.engine.Engine.jobs;
  checkb "nothing else changes" true
    ({ clamped with Wire.config = doc.Wire.config } = doc);
  checkb "a document within the cap is unchanged" true
    (Serve.clamp_doc Serve.default_config clamped = clamped)

(* server-side deadline clamp fires mid-stream *)

let test_deadline_clamp_mid_stream () =
  let config = { Serve.default_config with Serve.max_request_s = Some 0.005 } in
  with_server ~config (fun _ addr ->
      let doc = Wire.make_doc ~timing:(Wire.Laxity 2.2) (Wire.Bench "iir") in
      let lines = request_lines addr doc in
      let j = parse (last lines) in
      (* a clamped run still answers with exactly one typed final line:
         either a truncated result or a typed failure *)
      (match gets "kind" j with
      | "hsyn.result" ->
          checkb "truncated result is marked incomplete" false
            (Option.bind (Json.member "completed" j) (function Json.Bool b -> Some b | _ -> None)
            = Some true)
      | "hsyn.error" -> checks "failure is typed" "failed" (gets "code" j)
      | k -> Alcotest.failf "unexpected final kind %s" k);
      (* and the daemon is still healthy afterwards — the follow-up is
         clamped too, so any typed final line proves survival *)
      let final = parse (last (request_lines addr (test1_doc ()))) in
      checkb "daemon survives the deadline" true
        (List.mem (gets "kind" final) [ "hsyn.result"; "hsyn.error" ]))

(* ------------------------------------------------------------------ *)
(* metrics endpoint *)

let test_metrics_endpoint () =
  with_server (fun _ addr ->
      ignore (request_lines addr (test1_doc ()));
      match Serve.Client.metrics ~timeout_s:10. addr with
      | Error msg -> Alcotest.failf "metrics failed: %s" msg
      | Ok line ->
          let j = parse line in
          checks "metrics line kind" "hsyn.metrics" (gets "kind" j);
          List.iter
            (fun key -> checkb (key ^ " published") true (contains line key))
            [
              "serve.accepted"; "serve.completed"; "serve.rejected"; "serve.errors";
              "serve.in_flight"; "serve.queued"; "serve.latency_p90_ms";
              (* the scheduler kernel counts in the same registry *)
              "sched.schedules"; "sched.events_popped";
            ])

(* ------------------------------------------------------------------ *)
(* request-scoped telemetry *)

let geti k j = Option.get (Option.bind (Json.member k j) Json.to_int_opt)

(* every streamed event line carries its request's id; distinct
   requests carry distinct ids *)
let test_request_id_on_event_lines () =
  with_server (fun _ addr ->
      let ids_of doc =
        let lines = request_lines addr doc in
        let n = List.length lines in
        let events = List.filteri (fun i _ -> i < n - 1) lines in
        checkb "request streamed events" true (events <> []);
        List.map (fun line -> geti "request_id" (parse line)) events
      in
      let a = ids_of (test1_doc ()) in
      let b = ids_of (test1_doc ~objective:Cost.Power ()) in
      let uniq l = List.sort_uniq compare l in
      checki "one id across all of request A's events" 1 (List.length (uniq a));
      checki "one id across all of request B's events" 1 (List.length (uniq b));
      checkb "ids are positive" true (List.for_all (fun id -> id > 0) (a @ b));
      checkb "distinct requests, distinct ids" true (List.hd a <> List.hd b))

(* run [f] with the structured log captured to a temp file at Info,
   returning the NDJSON records; always restores the default logger
   state (Warn threshold, stderr sink, tracer off) *)
let with_log_capture f =
  let path = Filename.temp_file "hsyn-test-serve-log" ".ndjson" in
  let sink = Report.Sink.create path in
  Log.set_sink sink;
  Log.set_level Log.Info;
  Fun.protect
    ~finally:(fun () ->
      Log.set_level Log.Warn;
      Log.set_sink (Report.Sink.of_channel stderr);
      Trace.set_enabled false;
      (try Sys.remove path with Sys_error _ -> ()))
    (fun () ->
      f ();
      Report.Sink.close sink;
      let ic = open_in path in
      let rec go acc =
        match input_line ic with
        | line -> go (parse line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go [])

let test_access_log_and_slow_request () =
  (* slow_ms = 0: every request outruns the cap, so one served request
     must produce both the access record and the slow-request record *)
  let config = { Serve.default_config with Serve.slow_ms = Some 0.0 } in
  let records =
    with_log_capture (fun () ->
        with_server ~config (fun _ addr -> ignore (request_lines addr (test1_doc ()))))
  in
  let find msg =
    match List.find_opt (fun j -> Json.member "msg" j = Some (Json.String msg)) records with
    | Some j -> j
    | None -> Alcotest.failf "no %S record in the captured log" msg
  in
  let access = find "request" in
  checks "access record is info" "info" (gets "level" access);
  checks "status" "ok" (gets "status" access);
  checks "source names the bench" "test1" (gets "source" access);
  checks "objective" "area" (gets "objective" access);
  checks "client over a unix socket" "unix" (gets "client" access);
  checki "config digest is 12 hex chars" 12 (String.length (gets "config_digest" access));
  checkb "request id stamped" true (geti "request_id" access > 0);
  let getf k j = Option.get (Option.bind (Json.member k j) Json.to_float_opt) in
  checkb "queue wait measured" true (getf "queue_wait_ms" access >= 0.0);
  checkb "run time measured" true (getf "run_ms" access > 0.0);
  checkb "moves committed reported" true (geti "moves_committed" access >= 0);
  checkb "cache hit rate reported" true
    (let r = getf "cache_hit_rate" access in
     r >= 0.0 && r <= 1.0);
  let slow = find "slow request" in
  checks "slow record is warn" "warn" (gets "level" slow);
  checkb "slow record carries the cap" true (getf "slow_ms" slow = 0.0);
  checkb "slow and access agree on the request" true
    (geti "request_id" slow = geti "request_id" access);
  let tree = gets "span_tree" slow in
  checkb "span tree is non-empty" true (String.length tree > 0);
  checkb "span tree is grouped by domain" true (contains tree "domain")

let test_tenant_label_on_request_counter () =
  with_server (fun _ addr ->
      let doc =
        Wire.make_doc ~objective:Cost.Area ~timing:(Wire.Laxity 2.2) ~config:test_config
          ~tenant:"t1" (Wire.Bench "test1")
      in
      ignore (request_lines addr doc);
      match Serve.Client.metrics ~timeout_s:10. addr with
      | Error msg -> Alcotest.failf "metrics failed: %s" msg
      | Ok line ->
          let counters = Option.get (Json.member "counters" (parse line)) in
          let series = {|serve.requests{objective="area",status="ok",tenant="t1"}|} in
          checkb "tenant-labeled series published" true
            (Option.bind (Json.member series counters) Json.to_int_opt = Some 1))

let test_prometheus_endpoint_and_top () =
  with_server (fun _ addr ->
      (* [serve.completed] is process-wide: count from a scrape taken
         before the request *)
      let completed_before =
        match Serve.Client.metrics ~timeout_s:10. addr with
        | Error msg -> Alcotest.failf "metrics failed: %s" msg
        | Ok line -> geti "serve.completed" (Option.get (Json.member "counters" (parse line)))
      in
      ignore (request_lines addr (test1_doc ()));
      (match Serve.Client.prometheus ~timeout_s:10. addr with
      | Error msg -> Alcotest.failf "prometheus failed: %s" msg
      | Ok text ->
          List.iter
            (fun needle -> checkb (needle ^ " present") true (contains text needle))
            [
              "# TYPE serve_completed counter";
              "# TYPE serve_latency_ms histogram";
              "serve_latency_ms_bucket{le=";
              {|le="+Inf"|};
              "serve_latency_ms_count";
              {|serve_requests{objective="area",status="ok"}|};
              "# TYPE sched_schedules counter";
              "# TYPE sched_events_popped counter";
            ];
          (* dotted names never leak into the exposition *)
          checkb "names are sanitized" false (contains text "serve.completed"));
      (* and the same scrape renders as one hsyn-top frame *)
      match Serve.Client.metrics ~timeout_s:10. addr with
      | Error msg -> Alcotest.failf "metrics failed: %s" msg
      | Ok line -> (
          match Top.of_line ~at:1.0 line with
          | Error msg -> Alcotest.failf "top parse failed: %s" msg
          | Ok sample ->
              let frame = Top.render sample in
              List.iter
                (fun needle -> checkb (needle ^ " in top frame") true (contains frame needle))
                [
                  "hsyn top";
                  "load";
                  (* the whole count, not a prefix of a larger one *)
                  Printf.sprintf "completed %d  rejected" (completed_before + 1);
                  "p90";
                  "cache";
                ]))

(* ------------------------------------------------------------------ *)
(* clean stop/drain *)

let test_stop_drains_and_unlinks () =
  let path = tmp_sock () in
  let server =
    match Serve.create (Serve.Unix_socket path) with
    | Ok s -> s
    | Error msg -> Alcotest.failf "serve create failed: %s" msg
  in
  let d = Domain.spawn (fun () -> Serve.run server) in
  let addr = Serve.address server in
  let final = last (request_lines addr (test1_doc ())) in
  checks "request served" "hsyn.result" (gets "kind" (parse final));
  Serve.stop server;
  Serve.stop server (* idempotent *);
  Domain.join d;
  let stats = Serve.stats server in
  checki "nothing in flight after drain" 0 stats.Serve.in_flight;
  checki "nothing queued after drain" 0 stats.Serve.queued;
  checki "the request completed" 1 stats.Serve.completed;
  checkb "socket path unlinked" false (Sys.file_exists path);
  match Serve.Client.request ~timeout_s:2. addr (test1_doc ()) with
  | Ok _ -> Alcotest.fail "stopped server still answered"
  | Error _ -> ()

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "doc round-trips" `Quick test_wire_doc_roundtrip;
          Alcotest.test_case "rejects unknown fields" `Quick test_wire_rejects_unknown_field;
          Alcotest.test_case "error round-trips" `Quick test_wire_error_roundtrip;
        ] );
      ( "identity",
        [
          Alcotest.test_case "served = solo" `Quick test_served_identical_to_solo;
          Alcotest.test_case "warm session = cold" `Quick test_shared_session_keeps_identity;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "malformed request survives" `Quick test_malformed_request_survives;
          Alcotest.test_case "deadline clamp mid-stream" `Quick test_deadline_clamp_mid_stream;
          Alcotest.test_case "jobs clamp" `Quick test_jobs_clamp;
          Alcotest.test_case "metrics endpoint" `Quick test_metrics_endpoint;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "request id on every event line" `Quick test_request_id_on_event_lines;
          Alcotest.test_case "access log and slow request" `Quick test_access_log_and_slow_request;
          Alcotest.test_case "tenant label on request counter" `Quick test_tenant_label_on_request_counter;
          Alcotest.test_case "prometheus endpoint and top frame" `Quick test_prometheus_endpoint_and_top;
        ] );
      ( "admission",
        [ Alcotest.test_case "rejects when full" `Quick test_admission_rejects_when_full ] );
      ( "lifecycle",
        [ Alcotest.test_case "stop drains and unlinks" `Quick test_stop_drains_and_unlinks ] );
    ]
