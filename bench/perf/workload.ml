(* The three workloads: their inputs, one timed pass of each, and the
   checks that decide whether every answer of a pass is correct.

   A pass sends a fixed list of synthesis requests. The batch workloads
   (power_hier, area_flat) run them one after another in this process,
   each on a fresh session, as a user of [hsyn synth] does. serve_mix
   sends them, with a malformed line, to an in-process daemon on a
   Unix socket from two client threads in a closed loop.

   The seed never changes how much synthesis a pass does: the request
   multiset and the synthesis trace seed are fixed, so that runs with
   different seeds measure the same work. The seed draws the held-out
   traces the batch checks simulate, the order in which each serve_mix
   pass sends its requests, and the order of the served answers
   re-checked against a solo run. *)

module S = Hsyn_core.Synthesize
module Wire = Hsyn_core.Wire
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module Engine = Hsyn_core.Engine
module Session = Hsyn_core.Session
module Serve = Hsyn_serve.Serve
module Suite = Hsyn_benchmarks.Suite
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Text = Hsyn_dfg.Text
module Flatten = Hsyn_dfg.Flatten
module Library = Hsyn_modlib.Library
module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Sim = Hsyn_eval.Sim
module Trace = Hsyn_eval.Trace
module Rng = Hsyn_util.Rng
module Json = Hsyn_util.Json
module Log = Hsyn_obs.Log
module Report = Hsyn_obs.Report

let lib = Library.default
let now = Unix.gettimeofday

(* Every synthesis runs sequentially, whatever HSYN_JOBS says. *)
let policy = { Engine.default_policy with Engine.jobs = 1 }

(* The synthesis effort of every request. It is below the [hsyn synth]
   default (fewer moves, candidates, passes and clocks, and 8 trace
   samples) so that a pass takes seconds and a run holds several: at
   the default a power_hier pass took 15 s, and on a 2-core host shared
   with other tenants its time varied by 6-8% between runs. The split
   of time between the layers stays close to the default's (power is
   64% of context time in power_hier against 71%; rewriting 33% of
   area_flat against 32%). *)
let config =
  {
    S.default_config with
    S.max_moves = 6;
    max_passes = 2;
    max_candidates = 24;
    trace_length = 8;
    max_clocks = 2;
    clib_effort = { Clib.default_effort with Clib.max_moves = 4; max_passes = 1; engine = policy };
    engine = policy;
  }

let resolve_bench name = Option.map (fun b -> (b.Suite.registry, b.Suite.dfg)) (Suite.by_name name)
let suite () = Suite.all () @ [ Suite.paulin () ]
let doc_line doc = Json.to_string (Wire.doc_to_json doc)

let program_text registry dfg = Text.to_string { Text.registry; graphs = [ dfg ] }

(* ------------------------------------------------------------------ *)
(* Batch inputs *)

let held_out_length = 64

type case = {
  label : string;
  doc : Wire.doc;
  text : string;  (** the behavior in the textual exchange format *)
  held_out : int array list;  (** check trace, drawn from the seed *)
  reference : int array list;
      (** outputs of the flattened behavior on [held_out], computed by
          the reference simulator from the text round-trip *)
}

let make_case ~rng ~objective ~flatten ~lf (b : Suite.t) =
  let text = program_text b.Suite.registry b.Suite.dfg in
  let program = Text.parse_string text in
  let dfg =
    match Text.select_graph program with Ok g -> g | Error msg -> failwith (b.Suite.name ^ ": " ^ msg)
  in
  let flat = Flatten.flatten program.Text.registry dfg in
  let held_out =
    Trace.generate rng Trace.White ~n_inputs:(Array.length dfg.Dfg.inputs) ~length:held_out_length
  in
  {
    label = Printf.sprintf "%s@%.1f" b.Suite.name lf;
    doc = Wire.make_doc ~objective ~timing:(Wire.Laxity lf) ~flatten ~config (Wire.Bench b.Suite.name);
    text;
    held_out;
    reference = Sim.run_flat flat held_out;
  }

(* ------------------------------------------------------------------ *)
(* Serve inputs *)

type item =
  | Synth of { label : string; doc : Wire.doc; line : string }
  | Malformed of { label : string; line : string }

let item_line = function Synth { line; _ } | Malformed { line; _ } -> line
let item_label = function Synth { label; _ } | Malformed { label; _ } -> label

(* Concurrent clients (tenants) of the daemon. *)
let clients = 2

(* The line the CI smoke step sends to check that malformed input gets
   a typed error. *)
let malformed_line = "not json"

let synth_item ~objective ~lf label source =
  let doc = Wire.make_doc ~objective ~timing:(Wire.Laxity lf) ~config source in
  Synth { label = Printf.sprintf "%s/%s@%.1f" label (Cost.objective_name objective) lf; doc; line = doc_line doc }

(* The traffic of the daemon's one caller in the repository, the CI
   smoke step (.github/workflows/ci.yml, "Serve daemon"): concurrent
   tenants send the same document [hsyn synth -b <bench> -o power
   --dump-request] prints (power objective, the CLI's L.F. 2.2), and a
   rare malformed line. Here the document is each suite behavior in
   turn, and every tenant sends the whole list (see [serve_pass]). *)
let serve_mix () =
  List.map (fun b -> synth_item ~objective:Cost.Power ~lf:2.2 b.Suite.name (Wire.Bench b.Suite.name)) (suite ())
  @ [ Malformed { label = "malformed"; line = malformed_line } ]

let shuffled rng l =
  let a = Array.of_list l in
  Rng.shuffle rng a;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Workloads *)

type shape = Batch of case list | Serve of item list

let names = [ "power_hier"; "area_flat"; "serve_mix" ]

(* Suite order: a batch user runs each case in a fresh process, so the
   order in which this process runs them is no input; fixing it keeps
   the heap high-water mark from depending on the seed. *)
let batch ~seed ~objective ~flatten ~lfs =
  let rng = Rng.create seed in
  Batch
    (List.concat_map
       (fun b -> List.map (fun lf -> make_case ~rng:(Rng.split rng) ~objective ~flatten ~lf b) lfs)
       (suite ()))

(* Builds a workload's inputs: the set-up work that [setup_s] times,
   together with the daemon start of serve_mix. *)
let make ~seed = function
  | "power_hier" -> Some (batch ~seed ~objective:Cost.Power ~flatten:false ~lfs:[ 2.2 ])
  | "area_flat" -> Some (batch ~seed ~objective:Cost.Area ~flatten:true ~lfs:[ 1.2; 2.2; 3.2 ])
  | "serve_mix" -> Some (Serve (serve_mix ()))
  | _ -> None

(* The wall time of one pass on the host the README's numbers come
   from, at the commit that defined the benchmark. It sets how many
   passes a run makes (see [Run.pass_count]), never what it reports. *)
let reference_pass_s = function
  | "power_hier" -> 2.9
  | "area_flat" -> 5.4
  | "serve_mix" -> 4.8
  | name -> invalid_arg ("reference_pass_s: " ^ name)

(* Synthesis requests in one pass. *)
let requests = function
  | Batch cases -> List.length cases
  | Serve items -> clients * List.length (List.filter (function Synth _ -> true | Malformed _ -> false) items)

(* ------------------------------------------------------------------ *)
(* One pass *)

(* Always-on counters of the sessions a pass used. *)
type counts = {
  engine : Session.counters;
  families : (string * Session.counters) list;
  profile_hits : int;
  profile_misses : int;
  passes_run : int;
  contexts : int;
}

let no_counts =
  {
    engine = Session.zero;
    families = [];
    profile_hits = 0;
    profile_misses = 0;
    passes_run = 0;
    contexts = 0;
  }

let add_session counts s =
  let merge acc (fam, c) =
    let prev = Option.value (List.assoc_opt fam acc) ~default:Session.zero in
    (fam, Session.add prev c) :: List.remove_assoc fam acc
  in
  let profiles = (Session.stats s).Session.profile_tbl in
  {
    counts with
    engine = Session.add counts.engine (Session.totals s);
    families = List.fold_left merge counts.families (Session.family_totals s);
    profile_hits = counts.profile_hits + profiles.Hsyn_util.Shard_tbl.hits;
    profile_misses = counts.profile_misses + profiles.Hsyn_util.Shard_tbl.misses;
  }

let add_coverage counts ~passes_run ~contexts =
  { counts with passes_run = counts.passes_run + passes_run; contexts = counts.contexts + contexts }

(* A finished synthesis and the problem it solved: what the traced run
   times layer calls on. It keeps no session, so its caches can go. *)
type subject = {
  registry : Registry.t;
  dfg : Dfg.t;  (** the behavior as given *)
  top : Dfg.t;  (** the graph the sweep ran on (flattened in baseline mode) *)
  config : S.config;
  result : S.result;
  text : string;  (** the behavior in the textual exchange format *)
  line : string;  (** the request document *)
}

let subject (request : S.Request.t) result ~text ~line =
  {
    registry = request.S.Request.registry;
    dfg = request.S.Request.dfg;
    top = S.Request.effective_dfg request;
    config = request.S.Request.config;
    result;
    text;
    line;
  }

type pass = {
  wall_s : float;
  latency_ms : (string * float) list;  (** synthesis requests: the request's label, its latency *)
  objectives : float list;  (** final power or area of each synthesis request *)
  run_ms : float list;  (** time inside synthesis, per request *)
  outside_ms : float list;  (** latency minus run time, per request *)
  rejected : int;  (** overload rejects *)
  attempted : int;
  failures : string list;  (** one message per wrong, missing or refused answer *)
  counts : counts;
  sched : Sched.stats;  (** scheduler counters over the timed part *)
  subjects : subject list;  (** batch: every case *)
  served : (string * string) list;  (** serve: (request line, final line) per synthesis request *)
  shared : Session.t option;  (** serve: the daemon's session *)
}

let objective_value objective (e : Cost.eval) =
  match objective with Cost.Power -> e.Cost.power | Cost.Area -> e.Cost.area

(* The trace the synthesis itself simulated (see Synthesize.run_context). *)
let synthesis_trace (config : S.config) dfg =
  Trace.generate (Rng.create config.S.seed) config.S.trace_kind
    ~n_inputs:(Array.length dfg.Dfg.inputs) ~length:config.S.trace_length

let same_eval (a : Cost.eval) (b : Cost.eval) =
  let bits = Int64.bits_of_float in
  bits a.Cost.area = bits b.Cost.area
  && bits a.Cost.power = bits b.Cost.power
  && bits a.Cost.energy_sample = bits b.Cost.energy_sample
  && a.Cost.makespan = b.Cost.makespan && a.Cost.feasible = b.Cost.feasible

(* Every check one batch answer fails; [] when it is correct. *)
let check_case case (r : S.result) =
  let check what f =
    match f () with true -> [] | false -> [ what ] | exception e -> [ what ^ ": " ^ Printexc.to_string e ]
  in
  let d = r.S.design in
  let cs = Sched.relaxed ~deadline:r.S.deadline_cycles d.Design.dfg in
  List.concat
    [
      check "infeasible result" (fun () -> r.S.eval.Cost.feasible);
      check "outputs differ from the flattened behavior on the held-out trace" (fun () ->
          Sim.outputs d (Sim.run d case.held_out) = case.reference);
      check "rescheduling is infeasible" (fun () -> (Sched.schedule r.S.ctx cs d).Sched.feasible);
      check "a fresh evaluation differs from the reported one" (fun () ->
          same_eval r.S.eval
            (Cost.evaluate ~with_power:true r.S.ctx cs ~sampling_ns:r.S.sampling_ns
               ~trace:(synthesis_trace case.doc.Wire.config d.Design.dfg)
               d));
    ]

type answer = { case : case; latency_s : float; run_s : float; answer : (subject, string) result }

(* One request as [hsyn synth] serves it: resolve the document on a
   fresh session, synthesize, render the result line. *)
let run_case case =
  let c0 = now () in
  let session = Session.create () in
  let answer, run_s =
    match Wire.to_request ~session ~resolve_bench ~lib case.doc with
    | Error msg -> (Error msg, 0.)
    | Ok request -> (
        let s0 = now () in
        let res = S.synthesize request in
        let run_s = now () -. s0 in
        match res with
        | Error msg -> (Error msg, run_s)
        | Ok result ->
            ignore (S.Result.to_json result : string);
            (Ok (subject request result ~text:case.text ~line:(doc_line case.doc)), run_s))
  in
  ({ case; latency_s = now () -. c0; run_s; answer }, session)

(* Runs the timed part of a pass and returns the function that checks
   its answers, so that a traced run can stop tracing before the checks
   call into the layers it measures. *)
let batch_pass cases =
  let t0 = now () in
  let sched0 = Sched.stats () in
  let answers, counts =
    List.fold_left
      (fun (answers, counts) case ->
        let a, session = run_case case in
        (a :: answers, add_session counts session))
      ([], no_counts) cases
  in
  let wall_s = now () -. t0 in
  let sched = Sched.sub_stats (Sched.stats ()) sched0 in
  fun () ->
    let answers = List.rev answers in
    let ok = List.filter_map (fun a -> Result.to_option a.answer |> Option.map (fun s -> (a, s))) answers in
    let failures =
      List.filter_map
        (fun a ->
          match a.answer with
          | Error msg -> Some (a.case.label ^ ": " ^ msg)
          | Ok s -> (
              match check_case a.case s.result with
              | [] -> None
              | msgs -> Some (a.case.label ^ ": " ^ String.concat "; " msgs)))
        answers
    in
    let counts =
      List.fold_left
        (fun c (_, s) ->
          let cov = s.result.S.coverage in
          add_coverage c ~passes_run:cov.S.passes_run ~contexts:cov.S.contexts_started)
        counts ok
    in
    {
      wall_s;
      latency_ms = List.map (fun (a, _) -> (a.case.label, a.latency_s *. 1000.)) ok;
      objectives = List.map (fun (_, s) -> objective_value s.result.S.objective s.result.S.eval) ok;
      run_ms = List.map (fun (a, _) -> a.run_s *. 1000.) ok;
      outside_ms = List.map (fun (a, _) -> (a.latency_s -. a.run_s) *. 1000.) ok;
      rejected = 0;
      attempted = List.length cases;
      failures;
      counts;
      sched;
      subjects = List.map snd ok;
      served = [];
      shared = None;
    }

(* ------------------------------------------------------------------ *)
(* serve_mix *)

(* Run outputs (daemon log, socket, traces) go here, inside the
   checkout; the leading underscore keeps dune out of it. *)
let out_dir = "_perf"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* 2 workers for the 2 clients, sized for a 2-core host. The queue
   never fills with 2 clients, so an overload reject means admission
   control misbehaved. The accept loop and the clients are system
   threads of the main domain, so the process runs as many domains as
   a daemon serving outside clients does (main + workers): every extra
   domain joins each stop-the-world minor collection, and client
   domains more than doubled the CPU time of a pass. *)
let serve_cfg =
  { Serve.default_config with Serve.max_inflight = 2; max_queue = 8; retry_after_s = 0.2; slow_ms = None }

type daemon = { srv : Serve.t; thread : Thread.t; log : Report.Sink.t }

(* Bind, start, and wait until the first metrics scrape is answered.
   The daemon's log goes to [log_path], never to stderr. *)
let start_daemon ~log_path =
  ensure_out_dir ();
  let log = Report.Sink.create log_path in
  Log.set_sink log;
  Log.set_level Log.Info;
  let sock = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  match Serve.create ~session:(Session.create ()) ~config:serve_cfg (Serve.Unix_socket sock) with
  | Error msg -> failwith ("serve: " ^ msg)
  | Ok srv ->
      let thread = Thread.create Serve.run srv in
      let deadline = now () +. 30. in
      let rec ready () =
        match Serve.Client.metrics ~timeout_s:10. (Serve.address srv) with
        | Ok _ -> ()
        | Error msg when now () > deadline -> failwith ("daemon not ready: " ^ msg)
        | Error _ ->
            Unix.sleepf 0.002;
            ready ()
      in
      ready ();
      { srv; thread; log }

let stop_daemon d =
  Serve.stop d.srv;
  (* The accept loop sees the flag when its select returns; a scrape
     wakes it at once instead of at the select's 0.25 s timeout. *)
  ignore (Serve.Client.metrics ~timeout_s:1. (Serve.address d.srv));
  Thread.join d.thread;
  Log.set_level Log.Warn;
  Log.set_sink (Report.Sink.of_channel stderr);
  Report.Sink.close d.log

let member_string key j = Option.bind (Json.member key j) Json.to_string_opt
let path j keys = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys

(* The request id the daemon stamped on a reply's event lines. *)
let request_id lines =
  List.find_map
    (fun l ->
      match Json.of_string l with
      | Ok j -> Option.bind (Json.member "request_id" j) Json.to_int_opt
      | Error _ -> None)
    lines

type verdict = Ok_result of float | Bad_request | Overloaded | Wrong of string

let verdict_of_final objective final =
  match Json.of_string final with
  | Error _ -> Wrong "final line is not JSON"
  | Ok j -> (
      match member_string "kind" j with
      | Some "hsyn.result" -> (
          let field k = Option.bind (path j [ "eval"; k ]) Json.to_float_opt in
          match (path j [ "eval"; "feasible" ], field (Cost.objective_name objective)) with
          | Some (Json.Bool true), Some v -> Ok_result v
          | _ -> Wrong "result is infeasible or has no objective value")
      | Some "hsyn.error" -> (
          match member_string "code" j with
          | Some "bad_request" -> Bad_request
          | Some "overloaded" -> Overloaded
          | code -> Wrong ("error " ^ Option.value code ~default:"without code"))
      | _ -> Wrong "final line is neither a result nor an error")

(* Access-log records of one pass: request id -> run time. *)
let access_runs log_path =
  let ic = open_in log_path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let tbl = Hashtbl.create 128 in
      (try
         while true do
           match Json.of_string (input_line ic) with
           | Ok j when member_string "msg" j = Some "request" -> (
               match
                 ( Option.bind (Json.member "request_id" j) Json.to_int_opt,
                   Option.bind (Json.member "run_ms" j) Json.to_float_opt )
               with
               | Some id, Some ms -> Hashtbl.replace tbl id ms
               | _ -> ())
           | _ -> ()
         done
       with End_of_file -> ());
      tbl)

type reply = { item : item; latency_ms : float; lines : (string list, string) result }

let final_line lines = match List.rev lines with last :: _ -> Some last | [] -> None

(* The checks and counters of a served pass. *)
let judge ~log_path ~session ~wall_s ~sched ~attempted replies =
  let judged =
    List.map
      (fun r ->
        let objective = match r.item with Synth { doc; _ } -> doc.Wire.objective | Malformed _ -> Cost.Area in
        match Result.map final_line r.lines with
        | Error msg -> (r, Wrong ("no answer: " ^ msg))
        | Ok None -> (r, Wrong "empty answer")
        | Ok (Some l) -> (r, verdict_of_final objective l))
      replies
  in
  let failures =
    List.filter_map
      (fun (r, v) ->
        let fail msg = Some (item_label r.item ^ ": " ^ msg) in
        match (r.item, v) with
        | Synth _, Ok_result _ | Malformed _, Bad_request -> None
        | _, Overloaded -> fail "refused as overloaded"
        | Synth _, Bad_request -> fail "refused as a bad request"
        | Malformed _, Ok_result _ -> fail "malformed line was served"
        | _, Wrong msg -> fail msg)
      judged
  in
  let synth_ok =
    List.filter_map
      (fun (r, v) ->
        match (r.item, v, r.lines) with
        | Synth { line; label; _ }, Ok_result obj, Ok lines ->
            Some (r, label, line, obj, lines, Option.get (final_line lines))
        | _ -> None)
      judged
  in
  (* repeated documents must get the same answer *)
  let canonical = Hashtbl.create 64 in
  let repeat_failures =
    List.filter_map
      (fun (_, label, line, _, _, fin) ->
        let c = Serve.canonical_final fin in
        match Hashtbl.find_opt canonical line with
        | None ->
            Hashtbl.add canonical line c;
            None
        | Some c0 when c0 = c -> None
        | Some _ -> Some (label ^ ": a repeated document got a different answer"))
      synth_ok
  in
  let runs = access_runs log_path in
  let timed =
    List.filter_map
      (fun (r, _, _, _, lines, _) ->
        Option.map (fun run -> (r.latency_ms, run)) (Option.bind (request_id lines) (Hashtbl.find_opt runs)))
      synth_ok
  in
  let counts =
    List.fold_left
      (fun c (_, _, _, _, _, fin) ->
        match Json.of_string fin with
        | Ok j ->
            let cov k = Option.value (Option.bind (path j [ "coverage"; k ]) Json.to_int_opt) ~default:0 in
            add_coverage c ~passes_run:(cov "passes_run") ~contexts:(cov "contexts_started")
        | Error _ -> c)
      (add_session no_counts session) synth_ok
  in
  {
    wall_s;
    latency_ms = List.map (fun (r, label, _, _, _, _) -> (label, r.latency_ms)) synth_ok;
    objectives = List.map (fun (_, _, _, obj, _, _) -> obj) synth_ok;
    run_ms = List.map snd timed;
    outside_ms = List.map (fun (latency, run) -> latency -. run) timed;
    rejected = List.length (List.filter (fun (_, v) -> v = Overloaded) judged);
    attempted;
    failures = failures @ repeat_failures;
    counts;
    sched;
    subjects = [];
    served = List.map (fun (_, _, line, _, _, fin) -> (line, fin)) synth_ok;
    shared = Some session;
  }

(* Runs the timed part of a pass: a fresh daemon, and [clients] client
   threads that each send every item in turn, waiting for each answer,
   so that the tenants send the same document at about the same time.
   Returns the function that checks the answers. *)
let serve_pass ~log_path items =
  let d = start_daemon ~log_path in
  let addr = Serve.address d.srv in
  let replies = ref [] and lock = Mutex.create () in
  let client () =
    let mine =
      List.map
        (fun item ->
          let c0 = now () in
          let lines = Serve.Client.raw ~timeout_s:120. addr (item_line item) in
          { item; latency_ms = (now () -. c0) *. 1000.; lines })
        items
    in
    Mutex.protect lock (fun () -> replies := mine @ !replies)
  in
  let t0 = now () in
  let sched0 = Sched.stats () in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  let wall_s = now () -. t0 in
  let sched = Sched.sub_stats (Sched.stats ()) sched0 in
  stop_daemon d;
  fun () ->
    judge ~log_path ~session:(Serve.session d.srv) ~wall_s ~sched ~attempted:(clients * List.length items) !replies

(* A seeded sample of served answers must equal a solo in-process run
   of the same document (modulo wall clocks and cache statistics). *)
let solo_check ~seed ~n served =
  let distinct = List.sort_uniq compare served in
  let sample = List.filteri (fun i _ -> i < n) (shuffled (Rng.create seed) distinct) in
  List.filter_map
    (fun (line, fin) ->
      match Wire.doc_of_string line with
      | Error msg -> Some ("solo check: " ^ msg)
      | Ok doc ->
          if Serve.canonical_final fin = Serve.canonical_final (Serve.solo_final serve_cfg doc) then None
          else Some "a served answer differs from a solo run of the same document")
    sample

(* The first [n] distinct synthesis documents of a mix, synthesized
   in-process on [session] (warm after a pass) for layer timing. *)
let serve_subjects session items n =
  let docs =
    List.sort_uniq compare (List.filter_map (function Synth { line; _ } -> Some line | Malformed _ -> None) items)
  in
  List.filteri (fun i _ -> i < n) docs
  |> List.filter_map (fun line ->
         match Wire.doc_of_string line with
         | Error _ -> None
         | Ok doc -> (
             match Wire.to_request ~session ~resolve_bench ~lib doc with
             | Error _ -> None
             | Ok request -> (
                 match S.synthesize request with
                 | Error _ -> None
                 | Ok result ->
                     let text =
                       match doc.Wire.source with
                       | Wire.Program { text; _ } -> text
                       | Wire.Bench _ -> program_text request.S.Request.registry request.S.Request.dfg
                     in
                     Some (subject request result ~text ~line))))
