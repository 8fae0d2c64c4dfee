module Wire = Hsyn_core.Wire
module Session = Hsyn_core.Session
module Synthesize = Hsyn_core.Synthesize
module Budget = Hsyn_core.Budget
module Events = Hsyn_core.Events
module Registry = Hsyn_dfg.Registry
module Dfg = Hsyn_dfg.Dfg
module Library = Hsyn_modlib.Library
module Suite = Hsyn_benchmarks.Suite
module Json = Hsyn_util.Json
module Metrics = Hsyn_obs.Metrics
module Report = Hsyn_obs.Report
module Scope = Hsyn_obs.Scope
module Log = Hsyn_obs.Log
module Span = Hsyn_obs.Trace
module Prom = Hsyn_obs.Prom
module Cost = Hsyn_core.Cost
module Pass = Hsyn_core.Pass
module Engine = Hsyn_core.Engine

type address = Unix_socket of string | Tcp of string * int

let pp_address ppf = function
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

type config = {
  max_inflight : int;
  max_queue : int;
  max_request_s : float option;
  retry_after_s : float;
  read_timeout_s : float;
  slow_ms : float option;
  lib : Library.t;
  resolve_bench : string -> (Registry.t * Dfg.t) option;
}

let suite_resolve name =
  Option.map (fun b -> (b.Suite.registry, b.Suite.dfg)) (Suite.by_name name)

let default_config =
  {
    max_inflight = 2;
    max_queue = 8;
    max_request_s = None;
    retry_after_s = 1.0;
    read_timeout_s = 10.0;
    slow_ms = None;
    lib = Library.default;
    resolve_bench = suite_resolve;
  }

(* Bucket edges of serve.latency_ms: request wall-clock runs from
   sub-millisecond metrics scrapes to minute-scale syntheses. *)
let latency_edges_ms =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000.; 30000.; 60000. |]

(* Slow requests remembered for the scrape's [serve_recent_slow]. *)
let slow_recent_window = 8

type slow = { sl_id : int; sl_source : string; sl_run_ms : float }

type t = {
  cfg : config;
  session : Session.t;
  listener : Unix.file_descr;
  addr : address;
  stopping : bool Atomic.t;
  next_id : int Atomic.t;  (* request ids, minted at admission *)
  (* accepted-but-unserved connections (request id, enqueue time, fd);
     [queued]/[in_flight] counters live under [lock] so the admission
     check reads a consistent load *)
  queue : (int * float * Unix.file_descr) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable queued : int;
  mutable in_flight : int;
  tokens : Budget.token option Atomic.t array;  (* one live-token slot per worker *)
  mutable slow_recent : slow list;  (* newest first, <= slow_recent_window; under lock *)
  accepted : int Atomic.t;
  completed : int Atomic.t;
  rejected : int Atomic.t;
  errors : int Atomic.t;
  g_in_flight : Metrics.gauge;
  g_queued : Metrics.gauge;
  g_p90 : Metrics.gauge;
  h_latency : Metrics.histogram;
  c_accepted : Metrics.counter;
  c_rejected : Metrics.counter;
  c_completed : Metrics.counter;
  c_errors : Metrics.counter;
}

type stats = {
  accepted : int;
  completed : int;
  rejected : int;
  errors : int;
  in_flight : int;
  queued : int;
}

let address t = t.addr
let session t = t.session

let stats t =
  Mutex.lock t.lock;
  let in_flight = t.in_flight and queued = t.queued in
  Mutex.unlock t.lock;
  {
    accepted = Atomic.get t.accepted;
    completed = Atomic.get t.completed;
    rejected = Atomic.get t.rejected;
    errors = Atomic.get t.errors;
    in_flight;
    queued;
  }

(* -- socket plumbing --------------------------------------------------- *)

let unlink_stale_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ()
  | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)

let create ?session ?(config = default_config) addr =
  if config.max_inflight < 1 then Error "config.max_inflight must be >= 1"
  else if config.max_queue < 0 then Error "config.max_queue must be >= 0"
  else
    let session = match session with Some s -> s | None -> Session.create () in
    (* A dead client must not kill the daemon with SIGPIPE; writes to a
       closed peer then fail with EPIPE, which every writer catches. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    Metrics.set_enabled true;
    (* The slow-request log dumps the offender's own span tree, which
       needs the tracer recording while requests run. *)
    if config.slow_ms <> None then Span.set_enabled true;
    let bind_listen () =
      match addr with
      | Unix_socket path -> (
          match unlink_stale_socket path with
          | Error _ as e -> e
          | Ok () ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.bind fd (Unix.ADDR_UNIX path);
              Unix.listen fd (config.max_inflight + config.max_queue + 16);
              Ok (fd, addr))
      | Tcp (host, port) ->
          let inet =
            try Unix.inet_addr_of_string host
            with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
          in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (inet, port));
          Unix.listen fd (config.max_inflight + config.max_queue + 16);
          let port =
            match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> port
          in
          Ok (fd, Tcp (host, port))
    in
    match bind_listen () with
    | Error _ as e -> e
    | exception Unix.Unix_error (e, fn, arg) ->
        Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
    | Ok (listener, addr) ->
        Ok
          {
            cfg = config;
            session;
            listener;
            addr;
            stopping = Atomic.make false;
            next_id = Atomic.make 1;
            queue = Queue.create ();
            lock = Mutex.create ();
            nonempty = Condition.create ();
            queued = 0;
            in_flight = 0;
            tokens = Array.init config.max_inflight (fun _ -> Atomic.make None);
            slow_recent = [];
            accepted = Atomic.make 0;
            completed = Atomic.make 0;
            rejected = Atomic.make 0;
            errors = Atomic.make 0;
            g_in_flight = Metrics.gauge "serve.in_flight";
            g_queued = Metrics.gauge "serve.queued";
            g_p90 = Metrics.gauge "serve.latency_p90_ms";
            h_latency = Metrics.histogram ~edges:latency_edges_ms "serve.latency_ms";
            c_accepted = Metrics.counter "serve.accepted";
            c_rejected = Metrics.counter "serve.rejected";
            c_completed = Metrics.counter "serve.completed";
            c_errors = Metrics.counter "serve.errors";
          }

let stop t = Atomic.set t.stopping true

(* Only atomic reads and [Budget.cancel] (itself signal-safe), so this
   is callable from a signal handler like {!stop}. *)
let cancel_inflight t =
  Array.iter (fun slot -> match Atomic.get slot with Some tok -> Budget.cancel tok | None -> ()) t.tokens

(* under t.lock *)
let set_load_gauges t =
  Metrics.set t.g_in_flight (float_of_int t.in_flight);
  Metrics.set t.g_queued (float_of_int t.queued)

(* One histogram observation (an atomic bump in this domain's shard)
   replaces the old mutex-guarded 512-deep list rebuild; the legacy
   p90 gauge is derived from the histogram so existing scrape
   consumers keep their series. *)
let note_latency t ms =
  Metrics.observe t.h_latency ms;
  Metrics.set t.g_p90 (Metrics.hist_quantile 90. (Metrics.histogram_view t.h_latency))

let note_slow t sl =
  Mutex.lock t.lock;
  t.slow_recent <- sl :: List.filteri (fun i _ -> i < slow_recent_window - 1) t.slow_recent;
  Mutex.unlock t.lock

(* -- per-connection protocol ------------------------------------------- *)

(* Read the request line straight off the fd (an [in_channel] on the
   same fd would double-close it next to the writer channel). *)
let max_request_bytes = 16 * 1024 * 1024

let read_request_line t fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.read_timeout_s
   with Unix.Unix_error _ -> ());
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error "timed out waiting for the request line"
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | 0 -> if Buffer.length buf = 0 then Error "empty request" else Ok (Buffer.contents buf)
    | n -> (
        match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
        | Some i ->
            Buffer.add_subbytes buf chunk 0 i;
            Ok (Buffer.contents buf)
        | None ->
            Buffer.add_subbytes buf chunk 0 n;
            if Buffer.length buf > max_request_bytes then Error "request line too long" else go ())
  in
  go ()

let error_line ?retry_after_s code msg =
  Json.to_string (Wire.error_to_json (Wire.error ?retry_after_s code msg))

let clamp_budget cfg (b : Budget.t) =
  match cfg.max_request_s with
  | None -> b
  | Some cap ->
      let deadline_s =
        match b.Budget.deadline_s with None -> cap | Some d -> Float.min d cap
      in
      { b with Budget.deadline_s = Some deadline_s }

let refresh_exports t =
  Mutex.lock t.lock;
  set_load_gauges t;
  Mutex.unlock t.lock;
  Session.export_metrics t.session

let metrics_line t =
  refresh_exports t;
  let slow =
    Mutex.lock t.lock;
    let s = t.slow_recent in
    Mutex.unlock t.lock;
    List.map
      (fun sl ->
        Json.Obj
          [
            ("request_id", Json.Int sl.sl_id);
            ("source", Json.String sl.sl_source);
            ("run_ms", Json.Float sl.sl_run_ms);
          ])
      s
  in
  match Metrics.snapshot () with
  | Json.Obj fields ->
      (* the daemon's scrape adds the recent-slow ring on top of the
         plain registry snapshot; [hsyn top] renders it *)
      Json.to_string (Json.Obj (fields @ [ ("serve_recent_slow", Json.List slow) ]))
  | other -> Json.to_string other

let prometheus_text t =
  refresh_exports t;
  Prom.render ()

let request_kind line =
  match Json.of_string line with
  | Ok v -> Option.bind (Json.member "kind" v) Json.to_string_opt
  | Error _ -> None

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | exception Unix.Unix_error _ -> "unknown"

let source_name = function
  | Wire.Bench name -> name
  | Wire.Program { graph = Some g; _ } -> "program:" ^ g
  | Wire.Program { graph = None; _ } -> "program"

(* A stable short digest of the full request document, so operators
   can group access-log records by configuration without logging the
   configuration itself. *)
let doc_digest doc =
  String.sub (Digest.to_hex (Digest.string (Json.to_string (Wire.doc_to_json doc)))) 0 12

let cache_hit_rate (c : Engine.counters) =
  let total = c.Engine.cache_hits + c.Engine.cache_misses in
  if total = 0 then 0. else Float.of_int c.Engine.cache_hits /. Float.of_int total

(* Per-request outcome counter, labeled by objective/status (and
   tenant when the document names one). Cardinality is bounded by
   Metrics.max_label_sets: a flood of distinct tenants degrades into
   the overflow series, never into unbounded registry growth. *)
let count_request ~objective ~tenant ~status =
  let labels =
    [ ("objective", objective); ("status", status) ]
    @ match tenant with None -> [] | Some tn -> [ ("tenant", tn) ]
  in
  Metrics.incr (Metrics.counter ~labels "serve.requests")

(* Serve one connection on a worker domain. Never raises: every write
   failure means the client is gone, which only cancels that client's
   run. Runs under the request's [Scope], which is what stamps the
   request id onto event lines, spans and log records emitted below
   here on this domain. *)
let handle_conn (t : t) worker_id ~id ~queue_wait_ms fd =
  let oc = Unix.out_channel_of_descr fd in
  let sink = Report.Sink.of_channel oc in
  let send line = try Report.Sink.line sink line with _ -> () in
  let send_text s =
    try
      output_string oc s;
      flush oc
    with _ -> ()
  in
  let started = Unix.gettimeofday () in
  let access ~doc ~status ~extra =
    let run_ms = (Unix.gettimeofday () -. started) *. 1000. in
    let tenant = doc.Wire.tenant in
    let objective = Cost.objective_name doc.Wire.objective in
    count_request ~objective ~tenant ~status;
    Log.info
      ~fields:
        ([
           ("client", Json.String (peer_name fd));
           ("source", Json.String (source_name doc.Wire.source));
           ("objective", Json.String objective);
           ("config_digest", Json.String (doc_digest doc));
           ("queue_wait_ms", Json.Float queue_wait_ms);
           ("run_ms", Json.Float run_ms);
           ("status", Json.String status);
         ]
        @ extra)
      "request";
    (match t.cfg.slow_ms with
    | Some cap when run_ms > cap ->
        note_slow t { sl_id = id; sl_source = source_name doc.Wire.source; sl_run_ms = run_ms };
        Log.warn
          ~fields:
            [
              ("run_ms", Json.Float run_ms);
              ("slow_ms", Json.Float cap);
              ("span_tree", Json.String (Span.render_tree (Span.scoped_events id)));
            ]
          "slow request"
    | _ -> ());
    run_ms
  in
  (match read_request_line t fd with
  | Error msg -> send (error_line Wire.Bad_request msg)
  | Ok line when request_kind line = Some "hsyn.metrics" -> send (metrics_line t)
  | Ok line when request_kind line = Some "hsyn.prometheus" -> send_text (prometheus_text t)
  | Ok line -> (
      match Wire.doc_of_string line with
      | Error msg ->
          Atomic.incr t.errors;
          Metrics.incr t.c_errors;
          Log.warn ~fields:[ ("client", Json.String (peer_name fd)) ] "bad request";
          send (error_line Wire.Bad_request msg)
      | Ok doc ->
          let doc = { doc with Wire.budget = clamp_budget t.cfg doc.Wire.budget } in
          Scope.with_scope
            { Scope.id; tenant = doc.Wire.tenant }
            (fun () ->
              match
                Wire.to_request ~session:t.session ~resolve_bench:t.cfg.resolve_bench
                  ~lib:t.cfg.lib doc
              with
              | Error msg ->
                  Atomic.incr t.errors;
                  Metrics.incr t.c_errors;
                  ignore (access ~doc ~status:"bad_request" ~extra:[] : float);
                  send (error_line Wire.Bad_request msg)
              | Ok req ->
                  let token = Budget.start doc.Wire.budget in
                  Atomic.set t.tokens.(worker_id) (Some token);
                  (* The event stream doubles as liveness detection: a
                     failed write means the client disconnected, and the
                     supported way to stop its run is its budget token. *)
                  let events ev =
                    try Report.Sink.line sink (Events.to_json ev)
                    with _ -> Budget.cancel token
                  in
                  (* [doc.cache] is deliberately ignored: the daemon's
                     persistent cache location is operator-controlled
                     ([hsyn serve --cache]), never client-controlled. *)
                  (match Synthesize.synthesize ~events ~token req with
                  | Ok r ->
                      Atomic.incr t.completed;
                      Metrics.incr t.c_completed;
                      let stats = r.Synthesize.stats in
                      ignore
                        (access ~doc ~status:"ok"
                           ~extra:
                             [
                               ("moves_committed", Json.Int stats.Pass.moves_committed);
                               ( "cache_hit_rate",
                                 Json.Float (cache_hit_rate stats.Pass.engine) );
                             ]
                          : float);
                      send (Synthesize.Result.to_json r)
                  | Error msg ->
                      Atomic.incr t.errors;
                      Metrics.incr t.c_errors;
                      ignore (access ~doc ~status:"failed" ~extra:[] : float);
                      send (error_line Wire.Failed msg));
                  Atomic.set t.tokens.(worker_id) None;
                  note_latency t ((Unix.gettimeofday () -. started) *. 1000.))));
  try close_out oc with _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())

(* -- admission and workers --------------------------------------------- *)

(* Rejects are written on the accept domain; a bounded send timeout
   keeps a stalled client from blocking the accept loop. *)
let reject (t : t) fd code retry_after_s =
  Atomic.incr t.rejected;
  Metrics.incr t.c_rejected;
  let line = error_line ?retry_after_s code "server at capacity; retry later" in
  let line =
    if code = Wire.Shutting_down then error_line code "server is shutting down" else line
  in
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0 with Unix.Unix_error _ -> ());
  let bytes = Bytes.of_string (line ^ "\n") in
  (try ignore (Unix.write fd bytes 0 (Bytes.length bytes)) with _ -> ());
  (* The racing client may already have sent its request line, which
     this path never reads. Closing with unread data in the receive
     queue resets the peer (TCP RST; Linux AF_UNIX behaves the same)
     and discards the reject line with it — so signal EOF first, then
     drain with the same 1s bound before closing. *)
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
     let junk = Bytes.create 512 in
     let rec drain () = if Unix.read fd junk 0 (Bytes.length junk) > 0 then drain () in
     drain ()
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let admit (t : t) fd =
  Atomic.incr t.accepted;
  Metrics.incr t.c_accepted;
  if Atomic.get t.stopping then reject t fd Wire.Shutting_down None
  else begin
    Mutex.lock t.lock;
    let load = t.queued + t.in_flight in
    if load >= t.cfg.max_inflight + t.cfg.max_queue then begin
      Mutex.unlock t.lock;
      reject t fd Wire.Overloaded (Some t.cfg.retry_after_s)
    end
    else begin
      let id = Atomic.fetch_and_add t.next_id 1 in
      Queue.push (id, Unix.gettimeofday (), fd) t.queue;
      t.queued <- t.queued + 1;
      set_load_gauges t;
      Condition.signal t.nonempty;
      Mutex.unlock t.lock
    end
  end

let worker t worker_id () =
  (* Route process-directed signals (Ctrl-C, kill) to the accept loop:
     a worker parked in [Condition.wait] never reaches a safe point, so
     a signal delivered to it would sit pending forever. With SIGINT /
     SIGTERM blocked here (and in the pool domains spawned from here),
     the kernel delivers them to the main domain, whose [select] wakes
     and lets the handler run. *)
  (try ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ])
   with Invalid_argument _ | Unix.Unix_error _ -> ());
  let rec next () =
    Mutex.lock t.lock;
    let rec wait () =
      if not (Queue.is_empty t.queue) then begin
        let item = Queue.pop t.queue in
        t.queued <- t.queued - 1;
        t.in_flight <- t.in_flight + 1;
        set_load_gauges t;
        Mutex.unlock t.lock;
        Some item
      end
      else if Atomic.get t.stopping then begin
        Mutex.unlock t.lock;
        None
      end
      else begin
        Condition.wait t.nonempty t.lock;
        wait ()
      end
    in
    match wait () with
    | None -> ()
    | Some (id, enqueued, fd) ->
        let queue_wait_ms = (Unix.gettimeofday () -. enqueued) *. 1000. in
        (try handle_conn t worker_id ~id ~queue_wait_ms fd with _ -> ());
        Mutex.lock t.lock;
        t.in_flight <- t.in_flight - 1;
        set_load_gauges t;
        Mutex.unlock t.lock;
        next ()
  in
  next ()

let run t =
  let workers = List.init t.cfg.max_inflight (fun i -> Domain.spawn (worker t i)) in
  (* Poll the stop flag between selects: [stop] is signal-handler-safe
     because the accept loop needs no other wakeup. *)
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listener ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.listener with
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> admit t fd));
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (* Drain: wake every idle worker; each finishes the queued and
     in-flight requests before exiting its loop. *)
  Mutex.lock t.lock;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join workers;
  match t.addr with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* -- client ------------------------------------------------------------ *)

module Client = struct
  let connect addr =
    match addr with
    | Unix_socket path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | Tcp (host, port) ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (inet, port));
        fd

  let raw ?timeout_s addr line =
    match connect addr with
    | exception Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "connect: %s: %s" fn (Unix.error_message e))
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (match timeout_s with
            | Some s -> (
                try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with Unix.Unix_error _ -> ())
            | None -> ());
            let msg = Bytes.of_string (line ^ "\n") in
            (* a rejected connection may be answered and closed before
               the request line is even read; the reject line is still
               in the socket buffer then, so an EPIPE/ECONNRESET on
               send only matters if nothing turns out to be readable *)
            let send_err =
              match Unix.write fd msg 0 (Bytes.length msg) with
              | exception Unix.Unix_error (e, _, _) ->
                  Some (Printf.sprintf "send: %s" (Unix.error_message e))
              | _ -> None
            in
            let buf = Buffer.create 4096 in
            let chunk = Bytes.create 4096 in
            let rec drain () =
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  Error "timed out waiting for the response"
              | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
              | 0 -> Ok ()
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  drain ()
            in
            let lines =
              match drain () with
              | Error _ as e -> e
              | Ok () -> (
                  match
                    String.split_on_char '\n' (Buffer.contents buf)
                    |> List.filter (fun l -> l <> "")
                  with
                  | [] -> Error "server closed the connection without a response"
                  | lines -> Ok lines)
            in
            match (lines, send_err) with
            | Ok _, _ -> lines
            | Error _, Some err -> Error err
            | Error _, None -> lines)

  let request ?timeout_s addr doc = raw ?timeout_s addr (Json.to_string (Wire.doc_to_json doc))

  let metrics ?timeout_s addr =
    match raw ?timeout_s addr {|{"kind":"hsyn.metrics"}|} with
    | Error _ as e -> e
    | Ok lines -> Ok (List.nth lines (List.length lines - 1))

  let prometheus ?timeout_s addr =
    match raw ?timeout_s addr {|{"kind":"hsyn.prometheus"}|} with
    | Error _ as e -> e
    | Ok lines -> Ok (String.concat "\n" lines ^ "\n")
end

(* -- identity helpers -------------------------------------------------- *)

let solo_final ?session cfg doc =
  let doc = { doc with Wire.budget = clamp_budget cfg doc.Wire.budget } in
  match Wire.to_request ?session ~resolve_bench:cfg.resolve_bench ~lib:cfg.lib doc with
  | Error msg -> error_line Wire.Bad_request msg
  | Ok req -> (
      match Synthesize.synthesize req with
      | Ok r -> Synthesize.Result.to_json r
      | Error msg -> error_line Wire.Failed msg)

let canonical_final line =
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "elapsed_s" || k = "stats" then (k, Json.Null) else (k, v))
              fields))
  | Ok _ | Error _ -> line
