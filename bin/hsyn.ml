(* hsyn — command-line driver for the H-SYN behavioral synthesis
   system.

   Subcommands:
     synth    synthesize a benchmark or a textual DFG file
     report   flight-recorder report from a run's NDJSON event file
     list     list built-in benchmarks
     library  print the default module library (Table 1)
     dump     print a benchmark in the textual DFG format (--dot: Graphviz)
     fuzz     differential fuzzing of random programs against the oracles
     serve    synthesis daemon over a Unix or TCP socket
     top      live dashboard of a running daemon's metrics *)

module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Text = Hsyn_dfg.Text
module Flatten = Hsyn_dfg.Flatten
module Library = Hsyn_modlib.Library
module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Area = Hsyn_eval.Area
module Fsm = Hsyn_eval.Fsm
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module Engine = Hsyn_core.Engine
module Session = Hsyn_core.Session
module Budget = Hsyn_core.Budget
module Events = Hsyn_core.Events
module S = Hsyn_core.Synthesize
module Wire = Hsyn_core.Wire
module Serve = Hsyn_serve.Serve
module Top = Hsyn_serve.Top
module Suite = Hsyn_benchmarks.Suite
module Json = Hsyn_util.Json
module Metrics = Hsyn_obs.Metrics
module Trace = Hsyn_obs.Trace
module Report = Hsyn_obs.Report
module Log = Hsyn_obs.Log
open Cmdliner

(* The [-b]/[--file] flags: [-b] accepts a comma-separated list of
   benchmarks (synthesized in order, sharing one memoization session
   with [--share-session]), [--file] one textual DFG file. [of_benches]
   and [of_file] turn either into the caller's inputs. *)
let inputs bench file ~of_benches ~of_file =
  match (bench, file) with
  | Some names, None -> (
      let names =
        String.split_on_char ',' names |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let missing = List.filter (fun n -> Suite.by_name n = None) names in
      match (missing, names) with
      | name :: _, _ -> Error (Printf.sprintf "unknown benchmark %S (try 'hsyn list')" name)
      | [], [] -> Error "empty benchmark list"
      | [], names -> Ok (of_benches names))
  | None, Some path -> of_file path
  | Some _, Some _ -> Error "pass either --bench or --file, not both"
  | None, None -> Error "one of --bench or --file is required"

let load_input bench file dfg_name =
  inputs bench file ~of_benches:(List.filter_map Suite.resolve) ~of_file:(fun path ->
      match Text.parse_file path with
      | program -> (
          match Text.select_graph ?name:dfg_name program with
          | Ok g -> Ok [ (program.Text.registry, g) ]
          | Error msg ->
              if dfg_name = None then Error (Printf.sprintf "%s: %s (use --dfg)" path msg)
              else Error (Printf.sprintf "%s: %s" path msg))
      | exception Text.Parse_error (line, msg) ->
          Error (Printf.sprintf "%s:%d: %s" path line msg)
      | exception Sys_error msg -> Error msg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* synth *)

(* The [-b]/[--file] flags name one or more request sources; everything
   else about a [synth] invocation (objective, timing, config, budget)
   is carried by the same [Wire.doc] a [serve] client would send. *)
let load_sources bench file dfg_name =
  inputs bench file ~of_benches:(List.map (fun n -> Wire.Bench n)) ~of_file:(fun path ->
      match read_file path with
      | text -> Ok [ Wire.Program { text; graph = dfg_name } ]
      | exception Sys_error msg -> Error msg)

(* Compose the CLI's progress/NDJSON observers into one event sink.
   Progress goes to stderr so --json output stays machine-clean. The
   NDJSON side goes through the flight recorder's line-atomic sink
   (one buffered write + flush per line), so an interrupted run leaves
   a parseable artifact; [close] appends the metrics snapshot as a
   final [metrics_snapshot] line when metrics are being collected. *)
let make_events ~progress ~events_json =
  let ndjson =
    match events_json with
    | None -> None
    | Some "-" -> Some (Report.Sink.of_channel stdout)
    | Some path -> Some (Report.Sink.create path)
  in
  let sink (e : Events.t) =
    if progress then (
      prerr_endline (Events.to_string e);
      flush stderr);
    Option.iter (fun s -> Report.Sink.line s (Events.to_json e)) ndjson
  in
  let close () =
    Option.iter
      (fun s ->
        if Metrics.is_enabled () then
          Report.Sink.json s
            (Json.Obj
               [ ("event", Json.String "metrics_snapshot"); ("snapshot", Metrics.snapshot ()) ]);
        Report.Sink.close s)
      ndjson
  in
  (sink, close)

let write_json_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string v);
      output_char oc '\n')

let synth_one ~session ~doc progress events_json trace_out metrics_out checkpoint resume json
    show_stats profile show_rtl show_fsm show_sched show_verilog =
  (
      let lib = Library.default in
      match Wire.to_request ~session ~resolve_bench:Suite.resolve ~lib doc with
      | Error msg ->
          prerr_endline ("hsyn: " ^ msg);
          1
      | Ok req -> (
          let registry = req.S.Request.registry and dfg = req.S.Request.dfg in
          let objective = req.S.Request.objective in
          let sampling_ns = req.S.Request.sampling_ns in
          let min_ns = S.min_sampling_ns lib registry dfg in
          let policy = req.S.Request.config.S.engine in
          if not json then begin
            Printf.printf
              "behavior %s: %d operations after flattening, minimum sampling %.1f ns\n"
              dfg.Dfg.name
              (Flatten.total_operations registry dfg)
              min_ns;
            Printf.printf "synthesizing for %s, sampling period %.1f ns (laxity %.2f)\n%!"
              (Cost.objective_name objective) sampling_ns (sampling_ns /. min_ns)
          end;
          let token = Budget.start req.S.Request.budget in
          (* first Ctrl-C cancels cooperatively; a second one kills *)
          let previous =
            Sys.signal Sys.sigint
              (Sys.Signal_handle
                 (fun _ ->
                   if Budget.cancelled token then exit 130
                   else begin
                     prerr_endline "hsyn: interrupt — finishing current move, Ctrl-C again to kill";
                     Budget.cancel token
                   end))
          in
          let events, close_events = make_events ~progress ~events_json in
          let outcome =
            Fun.protect
              ~finally:(fun () ->
                close_events ();
                (match trace_out with Some path -> Trace.write path | None -> ());
                (match metrics_out with
                | Some path -> write_json_file path (Metrics.snapshot ())
                | None -> ());
                Sys.set_signal Sys.sigint previous)
              (fun () ->
                S.synthesize ~events ~token ?checkpoint ~resume ?cache_dir:doc.Wire.cache req)
          in
          match outcome with
          | Error msg ->
              prerr_endline ("hsyn: " ^ msg);
              1
          | Ok r when json ->
              print_endline (S.Result.to_json r);
              0
          | Ok r ->
              Printf.printf "\nresult:\n";
              Printf.printf "  V_dd          : %.1f V\n" r.S.ctx.Design.vdd;
              Printf.printf "  clock period  : %.1f ns\n" r.S.ctx.Design.clk_ns;
              Printf.printf "  schedule      : %d cycles (deadline %d)\n" r.S.eval.Cost.makespan
                r.S.deadline_cycles;
              Printf.printf "  area          : %.1f\n" r.S.eval.Cost.area;
              Printf.printf "  power         : %.3f\n" r.S.eval.Cost.power;
              Printf.printf "  synthesis time: %.2f s (%d contexts, %d moves)\n" r.S.elapsed_s
                r.S.coverage.S.contexts_started (Hsyn_core.Pass.moves_committed r.S.stats);
              if not r.S.completed then
                Printf.printf "  sweep stopped : %s after %d/%d contexts (best so far shown)\n"
                  (match r.S.coverage.S.stop_reason with Some s -> s | None -> "?")
                  r.S.coverage.S.contexts_done r.S.coverage.S.contexts_planned;
              if show_stats || profile then begin
                (* this design's own snapshot (the registry is reset
                   before each design), the one --metrics writes *)
                let snap = Metrics.snapshot () in
                Printf.printf "\nevaluation engine (jobs %d, cache %d):\n" policy.Engine.jobs
                  policy.Engine.cache_capacity;
                print_string (Report.render_stats snap);
                (match Hsyn_core.Pass.rewrite_kinds r.S.stats with
                | [] -> ()
                | kinds ->
                    Printf.printf "rewrites committed:";
                    List.iter (fun (k, n) -> Printf.printf " %s %d" k n) kinds;
                    print_newline ());
                if profile then begin
                  (* the table hsyn report prints from the same snapshot *)
                  print_newline ();
                  print_string
                    (Report.render_stages ~wall_s:r.S.elapsed_s (Report.stages_of_snapshot snap))
                end
              end;
              if show_rtl then Format.printf "@.%a@." Design.pp r.S.design;
              let cs = Sched.relaxed ~deadline:r.S.deadline_cycles r.S.design.Design.dfg in
              let sch = Sched.schedule ~cache:(Session.sched_cache session) r.S.ctx cs r.S.design in
              if show_sched then Format.printf "@.%a@." Sched.pp_schedule (r.S.design, sch);
              if show_fsm then Format.printf "@.%a@." Fsm.pp (Fsm.generate r.S.design sch);
              if show_verilog then print_string (Hsyn_eval.Netlist.emit r.S.ctx r.S.design sch);
              0))

(* Flags -> [Wire.doc]s: the CLI front-end builds the same request
   documents a [serve] client sends, then resolves them through the
   same [Wire.to_request]. [--dump-request] prints them instead. *)
let make_docs bench file dfg_name objective lf sampling flatten seed jobs budget_s max_contexts
    cache no_rewrite =
  Result.bind (load_sources bench file dfg_name) (fun sources ->
      let timing =
        match sampling with Some ns -> Wire.Sampling_ns ns | None -> Wire.Laxity lf
      in
      let policy =
        match jobs with
        | Some j -> { Engine.default_policy with Engine.jobs = max 1 j }
        | None -> Engine.default_policy
      in
      let config =
        {
          S.default_config with
          S.seed;
          engine = policy;
          enable_rewrite = not no_rewrite;
          clib_effort = { Clib.default_effort with Clib.engine = policy };
        }
      in
      Result.bind (Budget.make ?deadline_s:budget_s ?max_contexts ()) (fun budget ->
          Ok
            (List.map
               (Wire.make_doc ~objective ~timing ~flatten ~config ~budget ?cache)
               sources)))

let do_synth bench file dfg_name objective lf sampling flatten seed jobs budget_s max_contexts
    cache no_rewrite share_session dump_request progress events_json trace_out metrics_out
    checkpoint resume json show_stats profile show_rtl show_fsm show_sched show_verilog =
  match
    make_docs bench file dfg_name objective lf sampling flatten seed jobs budget_s max_contexts
      cache no_rewrite
  with
  | Error msg ->
      prerr_endline ("hsyn: " ^ msg);
      1
  | Ok docs when dump_request ->
      List.iter (fun d -> print_endline (Json.to_string (Wire.doc_to_json d))) docs;
      0
  | Ok docs ->
      if trace_out <> None then Trace.set_enabled true;
      if metrics_out <> None || trace_out <> None || show_stats || profile then
        Metrics.set_enabled true;
      (* one session reused across every design with --share-session;
         otherwise each design gets its own (results are identical
         either way — sharing only skips repeated work) *)
      let shared = if share_session then Some (Session.create ()) else None in
      List.fold_left
        (fun acc doc ->
          let session = match shared with Some s -> s | None -> Session.create () in
          (* each design's artifacts describe that design alone *)
          Metrics.reset ();
          Trace.reset ();
          let code =
            synth_one ~session ~doc progress events_json trace_out metrics_out checkpoint resume
              json show_stats profile show_rtl show_fsm show_sched show_verilog
          in
          max acc code)
        0 docs

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "bench" ] ~docv:"NAME[,NAME...]"
        ~doc:
          "Built-in benchmark(s) to synthesize; a comma-separated list runs each in turn (see \
           $(b,--share-session)).")

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Textual DFG file to synthesize.")

let dfg_arg =
  Arg.(value & opt (some string) None & info [ "dfg" ] ~docv:"NAME" ~doc:"Which dfg block of the file to use.")

let objective_arg =
  let objectives = List.map (fun o -> (Cost.objective_name o, o)) [ Cost.Area; Cost.Power ] in
  Arg.(
    value
    & opt (enum objectives) Cost.Area
    & info [ "o"; "objective" ] ~docv:"area|power" ~doc:"Optimization objective.")

let lf_arg =
  Arg.(value & opt float 2.2 & info [ "lf" ] ~docv:"FACTOR" ~doc:"Laxity factor: sampling period as a multiple of the minimum.")

let sampling_arg =
  Arg.(value & opt (some float) None & info [ "sampling" ] ~docv:"NS" ~doc:"Absolute sampling period in ns (overrides --lf).")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("hier", false); ("flat", true) ]) false
    & info [ "m"; "mode" ] ~docv:"hier|flat" ~doc:"Hierarchical synthesis or the flattened baseline.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Trace RNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluation worker domains (default: $(b,HSYN_JOBS) or 1). Results are identical for \
           every N.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget. Synthesis stops at the next move boundary after the deadline and \
           reports the best feasible design found so far.")

let max_contexts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-contexts" ] ~docv:"N"
        ~doc:"Stop after N (V_dd, clock) contexts of the sweep.")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persistent cost-cache directory: warm-start the run from caches saved there by \
           earlier runs, and snapshot the session's cache back on completion. Warm runs are \
           bit-identical to cold ones; a missing, corrupt or version-mismatched cache file is \
           skipped with a warning (a cold start), never an error.")

let share_session_flag =
  Arg.(
    value & flag
    & info [ "share-session" ]
        ~doc:
          "Share one memoization session (scheduler and cost caches) across all designs of a \
           comma-separated $(b,-b) list. Results are bit-identical with or without sharing; \
           sharing only skips repeated work. $(b,--stats) still reports each design's own \
           counts; only its $(b,[session]) lines describe the shared session's tables.")

let dump_request_flag =
  Arg.(
    value & flag
    & info [ "dump-request" ]
        ~doc:
          "Print the invocation as $(b,hsyn serve) request document(s) — one NDJSON line per \
           design — instead of synthesizing. Piping such a line to a running daemon's socket \
           reproduces the run.")

let progress_flag =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Print one progress line per synthesis milestone (to stderr).")

let events_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events-json" ] ~docv:"FILE"
        ~doc:"Write the progress-event stream as NDJSON to $(docv) ($(b,-) for stdout).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans (passes, candidate batches, scheduling, power simulation, embedding, \
           checkpoints) and write a Chrome/Perfetto trace-event JSON file to $(docv). Implies \
           metrics collection.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect the unified metrics registry during synthesis and write its JSON snapshot to \
           $(docv). With --events-json, the snapshot is also appended to the event stream as a \
           final metrics_snapshot line.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Snapshot the sweep to $(docv) after every finished (V_dd, clock) context.")

let resume_flag =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the --checkpoint file if it exists (a missing file is a cold start, so \
           this flag can be passed unconditionally).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the result as one JSON object instead of the human summary.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print evaluation-engine, scheduler-kernel and session-cache statistics of each design \
           from its metrics snapshot (implies metrics collection, which costs a few percent of \
           the run time).")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Record each stage's calls, inclusive time and self time (its time minus that of \
           the stages inside it) during synthesis and print the self-time table with the \
           statistics; with one job the self times and an \"outside any span\" row sum to \
           the run's wall time (implies $(b,--stats) and metrics collection).")
let rtl_flag = Arg.(value & flag & info [ "rtl" ] ~doc:"Dump the RTL structure of the result.")
let fsm_flag = Arg.(value & flag & info [ "fsm" ] ~doc:"Dump the controller FSM of the result.")
let sched_flag = Arg.(value & flag & info [ "sched" ] ~doc:"Dump the schedule of the result.")

let verilog_flag =
  Arg.(value & flag & info [ "verilog" ] ~doc:"Dump a Verilog-flavoured structural netlist of the result.")

let no_rewrite_flag =
  Arg.(
    value & flag
    & info [ "no-rewrite" ]
        ~doc:
          "Disable move family E (algebraic datapath rewriting: strength reduction, chain \
           re-balancing, common-subexpression extraction). Families A-D still run.")

let synth_cmd =
  let doc = "synthesize a power- or area-optimized RTL circuit" in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(
      const do_synth $ bench_arg $ file_arg $ dfg_arg $ objective_arg $ lf_arg $ sampling_arg
      $ mode_arg $ seed_arg $ jobs_arg $ budget_arg $ max_contexts_arg
      $ cache_arg $ no_rewrite_flag $ share_session_flag $ dump_request_flag $ progress_flag $ events_json_arg
      $ trace_arg $ metrics_arg $ checkpoint_arg $ resume_flag $ json_flag $ stats_flag
      $ profile_flag $ rtl_flag $ fsm_flag $ sched_flag $ verilog_flag)

(* ------------------------------------------------------------------ *)
(* report *)

(* A recorder/result mismatch is a hard failure so CI can rely on the
   exit code; so is a stream with no result to check, which is not a
   passed check. *)
let report_mismatch = 3
let report_not_checked = 4

let do_report events_path json_out =
  match Report.load events_path with
  | Error e ->
      prerr_endline ("hsyn: " ^ e);
      1
  | Ok r -> (
      if json_out then print_endline (Json.to_string (Report.to_json r))
      else print_string (Report.render r);
      match r.Report.consistent with
      | Some true -> 0
      | Some false -> report_mismatch
      | None -> report_not_checked)

let events_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"EVENTS.ndjson"
        ~doc:"NDJSON event stream written by $(b,hsyn synth --events-json).")

let report_cmd =
  let doc = "flight-recorder report: per-move-family gain attribution from a run's event file" in
  let exits =
    Cmd.Exit.info 1 ~doc:"the file cannot be read or holds no parseable line."
    :: Cmd.Exit.info report_mismatch ~doc:"the report disagrees with the run's own result."
    :: Cmd.Exit.info report_not_checked
         ~doc:"the stream has no $(b,run_finished) line, so nothing was checked."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "report" ~doc ~exits)
    Term.(const do_report $ events_path_arg $ json_flag)

(* ------------------------------------------------------------------ *)
(* list / library / dump / dot *)

let do_list () =
  List.iter
    (fun (b : Suite.t) ->
      Printf.printf "%-18s %s (%d hierarchical nodes, %d ops flattened)\n" b.Suite.name
        b.Suite.description (Dfg.n_calls b.Suite.dfg)
        (Flatten.total_operations b.Suite.registry b.Suite.dfg))
    (Suite.all () @ [ Suite.paulin () ]);
  0

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"list the built-in benchmarks") Term.(const do_list $ const ())

let do_library () =
  Format.printf "%a@." Library.pp Library.default;
  0

let library_cmd =
  Cmd.v
    (Cmd.info "library" ~doc:"print the default module library (the paper's Table 1)")
    Term.(const do_library $ const ())

let do_dump bench file dfg_name dot =
  match load_input bench file dfg_name with
  | Error msg ->
      prerr_endline ("hsyn: " ^ msg);
      1
  | Ok inputs ->
      List.iter
        (fun (registry, dfg) ->
          if dot then print_string (Text.to_dot dfg)
          else begin
            let buf = Buffer.create 1024 in
            List.iter
              (fun bname ->
                List.iter
                  (fun v -> Text.print_dfg buf ~behavior:bname v)
                  (Registry.variants registry bname))
              (Registry.behaviors registry);
            Text.print_dfg buf dfg;
            print_string (Buffer.contents buf)
          end)
        inputs;
      0

let dot_flag = Arg.(value & flag & info [ "dot" ] ~doc:"Graphviz output instead of the textual format.")

let dump_cmd =
  Cmd.v
    (Cmd.info "dump" ~doc:"print a benchmark in the textual DFG exchange format")
    Term.(const do_dump $ bench_arg $ file_arg $ dfg_arg $ dot_flag)

(* ------------------------------------------------------------------ *)
(* fuzz *)

module Fuzz = Hsyn_fuzz.Fuzz

let do_fuzz seed runs oracles corpus metrics_out =
  match Fuzz.validate_oracles oracles with
  | Error msg ->
      prerr_endline ("hsyn: " ^ msg);
      2
  | Ok () ->
      Metrics.set_enabled true;
      let config = { Fuzz.default_config with Fuzz.seed; runs; oracles; corpus = Some corpus } in
      let report = Fuzz.run config in
      Printf.printf "%-18s %6s %6s\n" "oracle" "pass" "fail";
      List.iter
        (fun (s : Fuzz.oracle_summary) ->
          Printf.printf "%-18s %6d %6d\n" s.Fuzz.o_name s.Fuzz.passed s.Fuzz.failed)
        report.Fuzz.summaries;
      List.iter
        (fun (f : Fuzz.failure) ->
          let first_line = match String.index_opt f.Fuzz.message '\n' with
            | Some i -> String.sub f.Fuzz.message 0 i
            | None -> f.Fuzz.message
          in
          Printf.printf "FAIL %s run %d: %s\n" f.Fuzz.oracle f.Fuzz.run first_line;
          Printf.printf "  shrunk %d -> %d nodes (%d steps, %d oracle re-runs)\n"
            f.Fuzz.shrink.Hsyn_fuzz.Shrink.size_before f.Fuzz.shrink.Hsyn_fuzz.Shrink.size_after
            f.Fuzz.shrink.Hsyn_fuzz.Shrink.steps f.Fuzz.shrink.Hsyn_fuzz.Shrink.checks_used;
          Option.iter (Printf.printf "  repro: %s\n") f.Fuzz.repro_path)
        report.Fuzz.failures;
      (match metrics_out with
      | Some path -> write_json_file path (Metrics.snapshot ())
      | None -> ());
      if report.Fuzz.failures = [] then begin
        Printf.printf "ok: %d runs, %d oracles, no divergence\n" report.Fuzz.total_runs
          (List.length report.Fuzz.summaries);
        0
      end
      else 1

let fuzz_seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Base RNG seed of the campaign.")

let fuzz_runs_arg =
  Arg.(value & opt int 100 & info [ "runs" ] ~docv:"K" ~doc:"Number of random programs to draw.")

let fuzz_oracle_arg =
  Arg.(
    value & opt_all string []
    & info [ "oracle" ] ~docv:"NAME"
        ~doc:
          ("Run only this oracle (repeatable). The per-run RNG streams do not depend on the \
            selection, so a failure found by a full campaign reproduces under its oracle alone. \
            Known oracles: "
          ^ String.concat ", " Hsyn_fuzz.Oracle.names
          ^ "."))

let fuzz_corpus_arg =
  Arg.(
    value
    & opt string "fuzz-corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Directory for shrunk failing-program repro files (created on first failure).")

let fuzz_cmd =
  let doc = "differential fuzzing: random hierarchical programs through paired implementations" in
  let man =
    [
      `S Cmdliner.Manpage.s_description;
      `P
        "Draws random well-formed hierarchical DFG programs and checks, per program, that \
         implementations which must agree do agree: the event-driven scheduler against the \
         time-stepped reference kernel, the memoized evaluation engine against direct cost evaluation, print against \
         parse, checkpoint-resume against an uninterrupted sweep, parallel against sequential \
         evaluation, and module merging against behavioral simulation. Failing programs are \
         shrunk to minimal $(b,.hsyn) repro files in the corpus directory.";
    ]
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const do_fuzz $ fuzz_seed_arg $ fuzz_runs_arg $ fuzz_oracle_arg $ fuzz_corpus_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* serve *)

let parse_tcp spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "--tcp %S: expected HOST:PORT" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Ok (Serve.Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "--tcp %S: bad port %S" spec port))

let resolve_listen_addr socket tcp =
  match (socket, tcp) with
  | Some path, None -> Ok (Serve.Unix_socket path)
  | None, Some spec -> parse_tcp spec
  | Some _, Some _ -> Error "pass either --socket or --tcp, not both"
  | None, None -> Error "one of --socket PATH or --tcp HOST:PORT is required"

let do_serve socket tcp max_inflight max_queue max_request_s retry_after_s cache slow_ms log_file
    log_level =
  match resolve_listen_addr socket tcp with
  | Error msg ->
      prerr_endline ("hsyn: " ^ msg);
      1
  | Ok addr -> (
      (* daemon logging: structured NDJSON records at info level by
         default (libraries default to warn), optionally into a file *)
      Log.set_level log_level;
      (match log_file with None -> () | Some path -> Log.set_sink (Report.Sink.create path));
      let config =
        {
          Serve.max_inflight = max 1 max_inflight;
          max_queue = max 0 max_queue;
          max_request_s;
          retry_after_s;
          slow_ms;
        }
      in
      (* the daemon's persistent cache is operator-controlled: the shared
         session is warm-started here, and saved back after the drain;
         client-supplied cache fields in request documents are ignored *)
      let session = Session.create () in
      (match cache with
      | None -> ()
      | Some dir -> (
          match Session.load_into session ~lib:Library.default ~dir with
          | Ok n ->
              Log.info
                ~fields:[ ("dir", Json.String dir); ("entries", Json.Int n) ]
                "cache loaded"
          | Error msg ->
              Log.warn
                ~fields:[ ("dir", Json.String dir); ("error", Json.String msg) ]
                "cache load failed; cold start"));
      match Serve.create ~session ~config addr with
      | Error msg ->
          prerr_endline ("hsyn: serve: " ^ msg);
          1
      | Ok srv ->
          (* first Ctrl-C drains (finish queued + in-flight, then exit);
             second cancels the in-flight runs' budgets; third kills *)
          let sigints = ref 0 in
          let on_sigint _ =
            incr sigints;
            match !sigints with
            | 1 -> Serve.stop srv
            | 2 -> Serve.cancel_inflight srv
            | _ -> exit 130
          in
          let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_sigint) in
          let prev_term =
            try Some (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Serve.stop srv)))
            with Invalid_argument _ | Sys_error _ -> None
          in
          Log.info
            ~fields:
              [
                ("addr", Json.String (Format.asprintf "%a" Serve.pp_address (Serve.address srv)));
                ("workers", Json.Int config.Serve.max_inflight);
                ("queue", Json.Int config.Serve.max_queue);
              ]
            "listening";
          Serve.run srv;
          Sys.set_signal Sys.sigint prev_int;
          Option.iter (Sys.set_signal Sys.sigterm) prev_term;
          (match cache with
          | None -> ()
          | Some dir -> (
              match Session.save (Serve.session srv) ~dir with
              | Ok n ->
                  Log.info
                    ~fields:[ ("dir", Json.String dir); ("entries", Json.Int n) ]
                    "cache saved"
              | Error msg ->
                  Log.error
                    ~fields:[ ("dir", Json.String dir); ("error", Json.String msg) ]
                    "cache save failed"));
          let st = Serve.stats srv in
          Log.info
            ~fields:
              [
                ("accepted", Json.Int st.Serve.accepted);
                ("completed", Json.Int st.Serve.completed);
                ("rejected", Json.Int st.Serve.rejected);
                ("errors", Json.Int st.Serve.errors);
              ]
            "drained";
          0)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at $(docv).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen on a TCP socket (port 0 picks a free port).")

let max_inflight_arg =
  Arg.(
    value & opt int Serve.default_config.Serve.max_inflight
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Worker domains — requests synthesizing concurrently (they share one session).")

let max_queue_arg =
  Arg.(
    value & opt int Serve.default_config.Serve.max_queue
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Accepted connections allowed to wait for a worker; beyond $(b,--max-inflight) + \
           $(docv) load, requests are rejected immediately with a typed overloaded error and a \
           retry-after hint.")

let max_request_s_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-request-s" ] ~docv:"SECONDS"
        ~doc:
          "Clamp every request's budget deadline to at most $(docv) of wall clock (requests \
           keep their own tighter deadlines and quotas).")

let retry_after_arg =
  Arg.(
    value & opt float Serve.default_config.Serve.retry_after_s
    & info [ "retry-after" ] ~docv:"SECONDS"
        ~doc:"The retry-after hint carried by overload rejections.")

let serve_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persistent cost-cache directory for the daemon's shared session: warm-start from \
           $(docv) on boot, save back after the drain, so restarts keep the accumulated cache. \
           Cache directives inside client request documents are ignored — the daemon's cache \
           location is operator-controlled.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Slow-request threshold: requests running longer than $(docv) log their own span tree \
           at warn level and appear in the metrics scrape's recent-slow ring (this arms the \
           tracer for the daemon's lifetime).")

let serve_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Write the structured NDJSON log (access records, slow requests, lifecycle) to \
           $(docv) instead of stderr.")

let log_level_arg =
  let levels = List.map (fun l -> (Log.level_name l, l)) Log.[ Debug; Info; Warn; Error ] in
  Arg.(
    value
    & opt (enum (levels @ [ ("warning", Log.Warn) ])) Log.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Log threshold: $(b,debug), $(b,info), $(b,warn) or $(b,error).")

let serve_cmd =
  let doc = "run the multi-tenant synthesis daemon (NDJSON over a Unix/TCP socket)" in
  let man =
    [
      `S Cmdliner.Manpage.s_description;
      `P
        "Speaks one request per connection: the client sends a single request document (the \
         format printed by $(b,hsyn synth --dump-request)), then reads progress-event lines \
         followed by one final line — the same versioned result JSON $(b,hsyn synth --json) \
         prints, or a typed error object. A $(b,{\"kind\":\"hsyn.metrics\"}) request returns a \
         metrics snapshot instead. All requests share one memoization session, so tenants \
         synthesizing similar designs warm each other's caches without changing any result.";
      `P "Quick start:";
      `Pre
        "  hsyn serve --socket /tmp/hsyn.sock &\n\
        \  hsyn synth -b dct --max-contexts 2 --dump-request \\\n\
        \    | nc -U /tmp/hsyn.sock";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const do_serve $ socket_arg $ tcp_arg $ max_inflight_arg $ max_queue_arg
      $ max_request_s_arg $ retry_after_arg $ serve_cache_arg $ slow_ms_arg $ serve_log_arg
      $ log_level_arg)

(* ------------------------------------------------------------------ *)
(* top *)

let do_top socket tcp interval once =
  match resolve_listen_addr socket tcp with
  | Error msg ->
      prerr_endline ("hsyn: " ^ msg);
      1
  | Ok addr ->
      let rec loop prev =
        match Serve.Client.metrics ~timeout_s:10.0 addr with
        | Error msg ->
            prerr_endline ("hsyn top: " ^ msg);
            1
        | Ok line -> (
            match Top.of_line ~at:(Unix.gettimeofday ()) line with
            | Error msg ->
                prerr_endline ("hsyn top: " ^ msg);
                1
            | Ok sample ->
                (* home + clear, so a refresh repaints in place *)
                if not once then print_string "\027[H\027[2J";
                print_string (Top.render ?prev sample);
                flush stdout;
                if once then 0
                else begin
                  Unix.sleepf interval;
                  loop (Some sample)
                end)
      in
      loop None

let top_interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between refreshes.")

let top_once_arg =
  Arg.(value & flag & info [ "once" ] ~doc:"Render a single frame and exit (no screen clear).")

let top_cmd =
  let doc = "live terminal dashboard for a running hsyn serve daemon" in
  let man =
    [
      `S Cmdliner.Manpage.s_description;
      `P
        "Polls the daemon's metrics scrape endpoint and renders load, request rates, latency \
         quantiles (from the $(b,serve.latency_ms) histogram), cache hit rates, per-family \
         move commit/revert counts and the recent slow requests. Point it at the same \
         $(b,--socket)/$(b,--tcp) address the daemon listens on.";
    ]
  in
  Cmd.v (Cmd.info "top" ~doc ~man)
    Term.(const do_top $ socket_arg $ tcp_arg $ top_interval_arg $ top_once_arg)

let main =
  let doc = "hierarchical behavioral synthesis of power- and area-optimized circuits" in
  Cmd.group (Cmd.info "hsyn" ~version:"1.0.0" ~doc)
    [ synth_cmd; report_cmd; list_cmd; library_cmd; dump_cmd; fuzz_cmd; serve_cmd; top_cmd ]

let () = exit (Cmd.eval' main)
