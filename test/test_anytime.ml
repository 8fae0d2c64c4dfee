(* Tests of the anytime synthesis runtime: Budget/Config validation,
   cooperative pool cancellation, quota-truncated sweeps, cancellation
   from an event sink, and checkpoint/resume determinism. *)

module Pool = Hsyn_util.Pool
module Json = Hsyn_util.Json
module Design = Hsyn_rtl.Design
module Cost = Hsyn_core.Cost
module Budget = Hsyn_core.Budget
module Events = Hsyn_core.Events
module Checkpoint = Hsyn_core.Checkpoint
module Engine = Hsyn_core.Engine
module Clib = Hsyn_core.Clib
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Library = Hsyn_modlib.Library

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let lib = Library.default

(* small effort so the whole file runs in seconds *)
let config =
  {
    S.default_config with
    S.max_moves = 6;
    max_passes = 2;
    max_candidates = 24;
    trace_length = 8;
    max_clocks = 2;
    clib_effort = { Clib.default_effort with Clib.max_moves = 4; max_passes = 1 };
  }

let request ?(config = config) ?budget ?(objective = Cost.Power) (b : Suite.t) =
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  match
    S.Request.make ~config ?budget ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective
      ~sampling_ns:(2.2 *. min_ns) ()
  with
  | Ok req -> req
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* validation *)

let test_config_validation () =
  let invalid c = Result.is_error (S.Config.validate c) in
  checkb "default valid" true (Result.is_ok (S.Config.validate S.default_config));
  checkb "non-positive moves" true (invalid { S.Config.default with S.max_moves = 0 });
  checkb "non-positive passes" true (invalid { S.Config.default with S.max_passes = -1 });
  checkb "empty vdds" true (invalid { S.Config.default with S.vdd_candidates = [] });
  checkb "negative vdd" true (invalid { S.Config.default with S.vdd_candidates = [ -3.3 ] });
  (* the delay law d(V) ~ V / (V - V_t)^2 has no value at or below V_t *)
  checkb "vdd below threshold" true (invalid { S.Config.default with S.vdd_candidates = [ 3.3; 0.5 ] });
  checkb "vdd at threshold" true (invalid { S.Config.default with S.vdd_candidates = [ 0.8 ] });
  checkb "record update validates" true
    (Result.is_ok (S.Config.validate { S.Config.default with S.max_passes = 2; seed = 7 }))

let test_request_validation () =
  let b = Suite.test1 () in
  (match
     S.Request.make ~config ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg
       ~objective:Cost.Area ~sampling_ns:(-1.) ()
   with
  | Ok _ -> Alcotest.fail "negative sampling must be rejected"
  | Error _ -> ());
  match
    S.Request.make
      ~config:{ config with S.max_moves = 0 }
      ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective:Cost.Area ~sampling_ns:100. ()
  with
  | Ok _ -> Alcotest.fail "invalid config must be rejected"
  | Error _ -> ()

let test_budget_validation () =
  checkb "unlimited valid" true (Budget.is_unlimited Budget.unlimited);
  checkb "ok" true (Result.is_ok (Budget.make ~deadline_s:1.0 ~max_contexts:2 ()));
  checkb "zero deadline" true (Result.is_error (Budget.make ~deadline_s:0. ()));
  checkb "negative quota" true (Result.is_error (Budget.make ~max_contexts:(-1) ()))

let test_budget_token () =
  let budget =
    match Budget.make ~max_contexts:2 () with Ok b -> b | Error e -> Alcotest.fail e
  in
  let tok = Budget.start budget in
  checkb "fresh not exhausted" true (Budget.exhausted tok = None);
  Budget.note_context tok;
  checkb "quota admits the second context" true (Budget.exhausted tok = None);
  Budget.note_context tok;
  checkb "quota fires on exhausted" true (Budget.exhausted tok = Some Budget.Context_quota);
  checkb "quota never hard-interrupts" true (Budget.interrupted tok = None);
  Budget.cancel tok;
  checkb "cancel is hard" true (Budget.interrupted tok = Some Budget.Cancelled);
  checkb "check raises" true
    (match Budget.check tok with exception Budget.Interrupted _ -> true | () -> false)

(* ------------------------------------------------------------------ *)
(* pool cancellation *)

let test_pool_cancel () =
  let pool = Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let fired = Atomic.make 0 in
      let cancel () = Atomic.get fired >= 3 in
      let work x =
        Atomic.incr fired;
        x * x
      in
      (match Pool.map_array ~cancel pool work (Array.init 64 Fun.id) with
      | _ -> Alcotest.fail "expected Pool.Cancelled"
      | exception Pool.Cancelled -> ());
      (* the pool must still be fully usable after a cancelled batch *)
      let r = Pool.map_array pool (fun x -> x + 1) (Array.init 8 Fun.id) in
      checki "pool survives cancel" 8 (Array.length r);
      checki "results correct" 8 r.(7))

let test_pool_exception_precedence () =
  let pool = Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      match
        Pool.map_array ~cancel:(fun () -> true) pool
          (fun _ -> failwith "boom")
          (Array.init 4 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Pool.Cancelled -> ()
      | exception Failure _ -> ())

(* ------------------------------------------------------------------ *)
(* quota-truncated sweeps *)

(* Record the per-context milestones of a full run, then check a
   context-quota run reproduces exactly the truncated prefix. *)
let test_context_quota_equivalence () =
  let b = Suite.test1 () in
  let incumbents = ref [] in
  let sink (e : Events.t) =
    match e.Events.payload with
    | Events.New_incumbent { context; value; _ } -> incumbents := (context, value) :: !incumbents
    | _ -> ()
  in
  let full =
    match S.synthesize ~events:sink (request b) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checkb "full run completed" true full.S.completed;
  let planned = full.S.coverage.S.contexts_planned in
  checkb "several contexts planned" true (planned >= 2);
  (* truncate right after the first context that produced an incumbent *)
  let first_ctx =
    match List.rev !incumbents with (c, _) :: _ -> c | [] -> Alcotest.fail "no incumbent"
  in
  let k = first_ctx + 1 in
  let budget =
    match Budget.make ~max_contexts:k () with Ok x -> x | Error e -> Alcotest.fail e
  in
  let truncated =
    match S.synthesize (request ~budget b) with Ok r -> r | Error e -> Alcotest.fail e
  in
  checkb "truncated incomplete" true
    (if k < planned then not truncated.S.completed else truncated.S.completed);
  if k < planned then
    Alcotest.(check (option string))
      "stop reason" (Some "context-quota") truncated.S.coverage.S.stop_reason;
  checki "contexts done" k truncated.S.coverage.S.contexts_done;
  (* the truncated run's best must equal the full run's best over the
     first k contexts *)
  let expect_value =
    List.fold_left
      (fun acc (c, v) -> if c < k then Float.min acc v else acc)
      infinity !incumbents
  in
  let got = Cost.objective_value truncated.S.objective truncated.S.eval in
  Alcotest.(check (float 1e-9)) "same incumbent as truncated full run" expect_value got

(* ------------------------------------------------------------------ *)
(* cancellation from an event sink *)

let test_cancel_from_sink () =
  let b = Suite.iir () in
  let req = request b in
  let token = Budget.start req.S.Request.budget in
  let finished = ref 0 in
  let sink (e : Events.t) =
    match e.Events.payload with
    | Events.Context_finished _ ->
        incr finished;
        if !finished = 1 then Budget.cancel token
    | _ -> ()
  in
  (match S.synthesize ~events:sink ~token req with
  | Ok r ->
      checkb "cancelled run incomplete" true (not r.S.completed);
      Alcotest.(check (option string)) "reason" (Some "cancelled") r.S.coverage.S.stop_reason
  | Error msg ->
      (* legal when the first context found nothing feasible *)
      checkb "error mentions budget" true (String.length msg > 0));
  checkb "few contexts ran" true (!finished <= 2)

let test_deadline_terminates () =
  (* a run the deadline must cut: unbudgeted, avenhaus_cascade at the
     default effort takes about 2 s on a 2-core x86-64 host, ten times
     the deadline (iir at the small effort above takes about 0.25 s
     now, too close to it) *)
  let b = Suite.avenhaus_cascade () in
  let budget =
    match Budget.make ~deadline_s:0.2 () with Ok x -> x | Error e -> Alcotest.fail e
  in
  let t0 = Unix.gettimeofday () in
  (match S.synthesize (request ~config:S.default_config ~budget b) with
  | Ok r -> checkb "incomplete" true (not r.S.completed)
  | Error _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  (* generous bound: deadline + one move evaluation *)
  checkb "returns promptly" true (elapsed < 30.)

(* ------------------------------------------------------------------ *)
(* checkpoint / resume *)

let test_checkpoint_resume_identical () =
  let b = Suite.test1 () in
  let full =
    match S.synthesize (request b) with Ok r -> r | Error e -> Alcotest.fail e
  in
  let planned = full.S.coverage.S.contexts_planned in
  checkb "enough contexts to interrupt" true (planned >= 2);
  let path = Filename.temp_file "hsyn_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let budget =
        match Budget.make ~max_contexts:(planned - 1) () with
        | Ok x -> x
        | Error e -> Alcotest.fail e
      in
      (match S.synthesize ~checkpoint:path (request ~budget b) with
      | Ok r -> checkb "interrupted" true (not r.S.completed)
      | Error _ -> ());
      checkb "checkpoint written" true (Sys.file_exists path);
      let resumed =
        match S.synthesize ~checkpoint:path ~resume:true (request b) with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      checkb "resumed completed" true resumed.S.completed;
      Alcotest.(check int64)
        "bit-identical design" (Design.fingerprint full.S.design)
        (Design.fingerprint resumed.S.design);
      Alcotest.(check (float 0.)) "same area" full.S.eval.Cost.area resumed.S.eval.Cost.area;
      Alcotest.(check (float 0.)) "same power" full.S.eval.Cost.power resumed.S.eval.Cost.power;
      checkb "same context" true
        (full.S.ctx.Design.vdd = resumed.S.ctx.Design.vdd
        && full.S.ctx.Design.clk_ns = resumed.S.ctx.Design.clk_ns);
      checki "full coverage counted across both runs" planned
        resumed.S.coverage.S.contexts_done;
      checki "passes counted across both runs" full.S.coverage.S.passes_run
        resumed.S.coverage.S.passes_run;
      checki "moves counted across both runs" full.S.coverage.S.moves_tried
        resumed.S.coverage.S.moves_tried)

let test_checkpoint_compatibility () =
  let b = Suite.test1 () in
  let path = Filename.temp_file "hsyn_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let budget =
        match Budget.make ~max_contexts:1 () with Ok x -> x | Error e -> Alcotest.fail e
      in
      (match S.synthesize ~checkpoint:path (request ~budget b) with
      | Ok _ | Error _ -> ());
      checkb "written" true (Sys.file_exists path);
      (* resuming with a different objective must be refused *)
      (match S.synthesize ~checkpoint:path ~resume:true (request ~objective:Cost.Area b) with
      | Ok _ -> Alcotest.fail "incompatible checkpoint accepted"
      | Error _ -> ());
      (* a corrupt file must be a clean error *)
      let oc = open_out_bin path in
      output_string oc "not a checkpoint";
      close_out oc;
      match S.synthesize ~checkpoint:path ~resume:true (request b) with
      | Ok _ -> Alcotest.fail "corrupt checkpoint accepted"
      | Error _ -> ())

let test_checkpoint_schema_versions () =
  (* a checkpoint from an older or newer build must be refused with a
     version message, not crash in Marshal on a stale layout *)
  let path = Filename.temp_file "hsyn_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      let write_header version =
        let oc = open_out_bin path in
        output_string oc "HSYN-CKPT";
        output_binary_int oc version;
        output_string oc "payload that must never be unmarshalled";
        close_out oc
      in
      List.iter
        (fun v ->
          write_header v;
          match Checkpoint.load path with
          | Ok _ -> Alcotest.failf "schema v%d accepted" v
          | Error msg ->
              checkb
                (Printf.sprintf "v%d names the version" v)
                true
                (contains msg (Printf.sprintf "schema version %d" v));
              checkb
                (Printf.sprintf "v%d names the expected version" v)
                true
                (contains msg (Printf.sprintf "expected %d" Checkpoint.schema_version)))
        [ Checkpoint.schema_version - 1; Checkpoint.schema_version + 1 ];
      (* right version, torn payload: a clean "truncated/corrupt" error *)
      let oc = open_out_bin path in
      output_string oc "HSYN-CKPT";
      output_binary_int oc Checkpoint.schema_version;
      close_out oc;
      match Checkpoint.load path with
      | Ok _ -> Alcotest.fail "torn checkpoint accepted"
      | Error _ -> ())

(* Single-bit flips anywhere in a real checkpoint's payload (the seal
   and the marshalled bytes after the header): each load must return
   [Error], never raise and never unmarshal damaged bytes. *)
let test_checkpoint_flipped_bits () =
  let b = Suite.test1 () in
  let path = Filename.temp_file "hsyn_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let budget =
        match Budget.make ~max_contexts:1 () with Ok x -> x | Error e -> Alcotest.fail e
      in
      (match S.synthesize ~checkpoint:path (request ~budget b) with Ok _ | Error _ -> ());
      (match Checkpoint.load path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "intact checkpoint refused: %s" e);
      let content = In_channel.with_open_bin path In_channel.input_all in
      let header = String.length "HSYN-CKPT" + 4 in
      let rng = Hsyn_util.Rng.create 16 in
      for _ = 1 to 64 do
        let bit = header * 8 + Hsyn_util.Rng.int rng ((String.length content - header) * 8) in
        let damaged = Bytes.of_string content in
        let byte = Bytes.get_uint8 damaged (bit / 8) in
        Bytes.set_uint8 damaged (bit / 8) (byte lxor (1 lsl (bit mod 8)));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc damaged);
        match Checkpoint.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "bit %d flipped, load succeeded" bit
        | exception e -> Alcotest.failf "bit %d flipped, load raised %s" bit (Printexc.to_string e)
      done)

let test_resume_mid_rewrite_sweep () =
  (* same determinism contract as [test_checkpoint_resume_identical],
     on the benchmark where move family E commits rewrites: a run
     interrupted between contexts of a rewrite-heavy sweep and resumed
     must converge bit-identically to the uninterrupted run *)
  let b = Suite.avenhaus_cascade () in
  let full =
    match S.synthesize (request b) with Ok r -> r | Error e -> Alcotest.fail e
  in
  checkb "family E committed rewrites" true
    (Hsyn_core.Pass.rewrite_kinds full.S.stats <> []);
  let planned = full.S.coverage.S.contexts_planned in
  checkb "enough contexts to interrupt" true (planned >= 2);
  let path = Filename.temp_file "hsyn_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let budget =
        match Budget.make ~max_contexts:(planned - 1) () with
        | Ok x -> x
        | Error e -> Alcotest.fail e
      in
      (match S.synthesize ~checkpoint:path (request ~budget b) with
      | Ok r -> checkb "interrupted" true (not r.S.completed)
      | Error _ -> ());
      checkb "checkpoint written" true (Sys.file_exists path);
      let resumed =
        match S.synthesize ~checkpoint:path ~resume:true (request b) with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      checkb "resumed completed" true resumed.S.completed;
      Alcotest.(check int64)
        "bit-identical design" (Design.fingerprint full.S.design)
        (Design.fingerprint resumed.S.design);
      Alcotest.(check (float 0.)) "same power" full.S.eval.Cost.power resumed.S.eval.Cost.power;
      checkb "same rewrites attributed" true
        (Hsyn_core.Pass.rewrite_kinds full.S.stats
        = Hsyn_core.Pass.rewrite_kinds resumed.S.stats))

let test_resume_missing_is_cold_start () =
  let b = Suite.test1 () in
  let path = Filename.temp_file "hsyn_test" ".ckpt" in
  Sys.remove path;
  let r =
    match S.synthesize ~checkpoint:path ~resume:true (request b) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checkb "cold start completed" true r.S.completed;
  if Sys.file_exists path then Sys.remove path

(* ------------------------------------------------------------------ *)
(* result JSON *)

let test_result_json () =
  let b = Suite.test1 () in
  let r = match S.synthesize (request b) with Ok r -> r | Error e -> Alcotest.fail e in
  let s = S.Result.to_json r in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "has schema version" true (contains "\"schema_version\":3");
  checkb "has coverage" true (contains "\"coverage\"");
  checkb "has fingerprint" true (contains "\"fingerprint\"");
  checkb "completed" true (contains "\"completed\":true");
  (* stats holds the run's own facts once: no process-wide scheduler
     delta, no batch clock, and moves_committed counts [committed] *)
  let stats = Option.get (Json.member "stats" (S.Result.to_json_value r)) in
  checkb "no stats.sched" true (Json.member "sched" stats = None);
  checkb "no stats.engine.wall_s" true
    (Option.bind (Json.member "engine" stats) (Json.member "wall_s") = None);
  Alcotest.(check (option int))
    "moves_committed = committed moves"
    (Some (List.length r.S.stats.Hsyn_core.Pass.committed))
    (Option.bind (Json.member "moves_committed" stats) Json.to_int_opt)

let test_json_builder () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\n");
        ("i", Json.Int 3);
        ("f", Json.Float 1.5);
        ("n", Json.Null);
        ("inf", Json.Float infinity);
        ("l", Json.List [ Json.Bool true; Json.Bool false ]);
      ]
  in
  Alcotest.(check string)
    "rendering"
    "{\"s\":\"a\\\"b\\n\",\"i\":3,\"f\":1.5,\"n\":null,\"inf\":null,\"l\":[true,false]}"
    (Json.to_string v)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "anytime"
    [
      ( "validation",
        [
          tc "config" test_config_validation;
          tc "request" test_request_validation;
          tc "budget" test_budget_validation;
          tc "budget token" test_budget_token;
        ] );
      ( "pool",
        [ tc "cancel" test_pool_cancel; tc "exception precedence" test_pool_exception_precedence ]
      );
      ( "budgets",
        [
          tc "context quota equivalence" test_context_quota_equivalence;
          tc "cancel from sink" test_cancel_from_sink;
          tc "deadline terminates" test_deadline_terminates;
        ] );
      ( "checkpoint",
        [
          tc "resume identical" test_checkpoint_resume_identical;
          tc "compatibility" test_checkpoint_compatibility;
          tc "schema versions" test_checkpoint_schema_versions;
          tc "flipped payload bits" test_checkpoint_flipped_bits;
          tc "resume mid rewrite sweep" test_resume_mid_rewrite_sweep;
          tc "missing is cold start" test_resume_missing_is_cold_start;
        ] );
      ("json", [ tc "result json" test_result_json; tc "builder" test_json_builder ]);
    ]
