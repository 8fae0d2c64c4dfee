(* Tests for the persistent cost-cache tier: save/load round trips are
   bit-identical, disk hits are observable, and every malformed-file
   mode (truncation, bad magic, schema mismatch, fingerprint collision)
   degrades to recomputation — never a wrong result, never a crash. *)

module Design = Hsyn_rtl.Design
module Library = Hsyn_modlib.Library
module Sched = Hsyn_sched.Sched
module Cost = Hsyn_core.Cost
module Engine = Hsyn_core.Engine
module Session = Hsyn_core.Session
module Cache_file = Hsyn_core.Cache_file
module S = Hsyn_core.Synthesize

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ctx = Tu.ctx ()
let lib = Library.default

let fresh_dir () =
  let path = Filename.temp_file "hsyn-test-cache" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let remove_dir dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> remove_dir dir) (fun () -> f dir)

let cache_file dir = Cache_file.file_path ~dir ~lib_digest:(Cache_file.lib_digest lib)

let same_eval (a : Cost.eval) (b : Cost.eval) =
  Int64.bits_of_float a.Cost.area = Int64.bits_of_float b.Cost.area
  && Int64.bits_of_float a.Cost.power = Int64.bits_of_float b.Cost.power
  && Int64.bits_of_float a.Cost.energy_sample = Int64.bits_of_float b.Cost.energy_sample
  && a.Cost.makespan = b.Cost.makespan
  && a.Cost.feasible = b.Cost.feasible

(* ------------------------------------------------------------------ *)
(* Engine-level fixtures: one design, one evaluation context *)

let eval_fixture () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let cs = Sched.relaxed ~deadline:1000 d.Design.dfg in
  (d, cs, 20000., Tu.trace d.Design.dfg)

let engine session (_, cs, sampling_ns, trace) =
  Engine.create ~session ~ctx ~cs ~sampling_ns ~trace ~objective:Cost.Power ()

let saved_context ~cs ~sampling_ns ~trace entries =
  {
    Cache_file.sc_vdd = ctx.Design.vdd;
    sc_clk_ns = ctx.Design.clk_ns;
    sc_cs = cs;
    sc_sampling_ns = sampling_ns;
    sc_trace = trace;
    sc_entries = entries;
  }

(* ------------------------------------------------------------------ *)
(* Round trip *)

let test_roundtrip () =
  with_dir @@ fun dir ->
  let (d, _, _, _) as fx = eval_fixture () in
  let sa = Session.create () in
  let v = Engine.evaluate (engine sa fx) d in
  (match Session.save sa ~dir with
  | Ok n -> checkb "saved at least one entry" true (n >= 1)
  | Error e -> Alcotest.fail ("save failed: " ^ e));
  let sb = Session.create () in
  (match Session.load_into sb ~lib ~dir with
  | Ok n -> checkb "loaded at least one entry" true (n >= 1)
  | Error e -> Alcotest.fail ("load failed: " ^ e));
  let eb = engine sb fx in
  let v' = Engine.evaluate eb d in
  checkb "bit-identical across the disk round trip" true (same_eval v v');
  let c = Engine.counters eb in
  checki "hit served from disk" 1 c.Engine.disk_hits;
  checki "nothing recomputed" 0 c.Engine.evaluated

let test_disk_entry_served () =
  (* a matching disk entry must actually be consulted: plant a marker
     eval at the right fingerprint with the right design and observe it
     come back, counted as a disk hit *)
  with_dir @@ fun dir ->
  let (d, cs, sampling_ns, trace) = eval_fixture () in
  let marker =
    { Cost.area = 123.0; power = 4.5; energy_sample = 6.7; makespan = 8; feasible = true }
  in
  let payload =
    [
      saved_context ~cs ~sampling_ns ~trace
        [
          {
            Cache_file.se_fp = Design.fingerprint d;
            se_design = d;
            se_full = true;
            se_eval = marker;
          };
        ];
    ]
  in
  (match Cache_file.save ~dir ~lib_digest:(Cache_file.lib_digest lib) payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let s = Session.create () in
  (match Session.load_into s ~lib ~dir with
  | Ok n -> checki "one entry loaded" 1 n
  | Error e -> Alcotest.fail e);
  let e = engine s (d, cs, sampling_ns, trace) in
  checkb "served the persisted eval" true (same_eval (Engine.evaluate e d) marker);
  checki "counted as a disk hit" 1 (Engine.counters e).Engine.disk_hits

let test_collision_from_disk () =
  (* right fingerprint, wrong design: the structural verification must
     report a miss and recompute, exactly like an in-memory collision *)
  with_dir @@ fun dir ->
  let (d, cs, sampling_ns, trace) = eval_fixture () in
  let reference = Engine.evaluate (engine (Session.create ()) (d, cs, sampling_ns, trace)) d in
  let imposter = Tu.initial ctx (Tu.add_chain_graph ()) in
  let poisoned =
    { Cost.area = 1.0; power = 2.0; energy_sample = 3.0; makespan = 1; feasible = true }
  in
  let payload =
    [
      saved_context ~cs ~sampling_ns ~trace
        [
          {
            Cache_file.se_fp = Design.fingerprint d;
            se_design = imposter;
            se_full = true;
            se_eval = poisoned;
          };
        ];
    ]
  in
  (match Cache_file.save ~dir ~lib_digest:(Cache_file.lib_digest lib) payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let s = Session.create () in
  (match Session.load_into s ~lib ~dir with
  | Ok n -> checki "imposter entry loaded" 1 n
  | Error e -> Alcotest.fail e);
  let e = engine s (d, cs, sampling_ns, trace) in
  let v = Engine.evaluate e d in
  checkb "collision recomputed the true value" true (same_eval v reference);
  checkb "poisoned eval never observed" false (same_eval v poisoned);
  checki "no disk hit on a collision" 0 (Engine.counters e).Engine.disk_hits

(* ------------------------------------------------------------------ *)
(* Synthesis-level warm start *)

let small_config =
  match
    S.Config.make ~max_moves:6 ~max_passes:1 ~max_candidates:4 ~trace_length:4 ~seed:7
      ~vdd_candidates:[ 5.0; 3.3 ] ~max_clocks:2 ()
  with
  | Ok c -> c
  | Error msg -> failwith msg

let mk_request ?session () =
  let dfg = Tu.small_graph () in
  let registry = Hsyn_dfg.Registry.create () in
  let sampling_ns = 4.0 *. Float.max 1.0 (S.min_sampling_ns lib registry dfg) in
  match
    S.Request.make ~config:small_config ?session ~lib ~registry ~dfg ~objective:Cost.Power
      ~sampling_ns ()
  with
  | Ok req -> req
  | Error msg -> failwith msg

let same_outcome a b =
  match (a, b) with
  | Error (ea : string), Error eb -> ea = eb
  | Ok (ra : S.result), Ok (rb : S.result) ->
      Design.fingerprint ra.S.design = Design.fingerprint rb.S.design
      && same_eval ra.S.eval rb.S.eval
      && ra.S.ctx.Design.vdd = rb.S.ctx.Design.vdd
      && ra.S.ctx.Design.clk_ns = rb.S.ctx.Design.clk_ns
      && ra.S.deadline_cycles = rb.S.deadline_cycles
  | Ok _, Error _ | Error _, Ok _ -> false

let test_synthesize_warm_identical () =
  with_dir @@ fun dir ->
  let cold = S.synthesize (mk_request ()) in
  (match cold with Ok _ -> () | Error e -> Alcotest.fail ("cold run failed: " ^ e));
  let saver = S.synthesize ~cache_dir:dir (mk_request ()) in
  checkb "cache flag does not change the result" true (same_outcome cold saver);
  checkb "cache file written" true (Sys.file_exists (cache_file dir));
  let warm_session = Session.create () in
  let warm = S.synthesize ~cache_dir:dir (mk_request ~session:warm_session ()) in
  checkb "warm run bit-identical to cold" true (same_outcome cold warm);
  checkb "warm run hit the disk tier" true
    ((Session.totals warm_session).Session.disk_hits > 0)

(* ------------------------------------------------------------------ *)
(* Robustness: malformed cache files degrade to recomputation *)

let populate dir =
  let (d, _, _, _) as fx = eval_fixture () in
  let s = Session.create () in
  ignore (Engine.evaluate (engine s fx) d : Cost.eval);
  match Session.save s ~dir with Ok _ -> () | Error e -> Alcotest.fail ("save failed: " ^ e)

let load_must_fail what dir =
  match Session.load_into (Session.create ()) ~lib ~dir with
  | Error _ -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "%s: load succeeded with %d entries" what n)

let synthesis_survives dir =
  (* a directory holding a malformed file must still warm-"start" and
     finish with the cold result, and the run rewrites a good file *)
  let cold = S.synthesize (mk_request ()) in
  let warm = S.synthesize ~cache_dir:dir (mk_request ()) in
  checkb "synthesis degrades to recomputation" true (same_outcome cold warm)

let test_truncated () =
  with_dir @@ fun dir ->
  populate dir;
  let file = cache_file dir in
  let content = In_channel.with_open_bin file In_channel.input_all in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (String.sub content 0 (String.length content / 2)));
  load_must_fail "truncated file" dir;
  synthesis_survives dir

let test_bad_magic () =
  with_dir @@ fun dir ->
  Out_channel.with_open_bin (cache_file dir) (fun oc ->
      Out_channel.output_string oc "this is not an hsyn cache file");
  load_must_fail "bad magic" dir;
  synthesis_survives dir

let test_version_mismatch () =
  with_dir @@ fun dir ->
  let oc = open_out_bin (cache_file dir) in
  output_string oc Cache_file.magic;
  output_binary_int oc (Cache_file.schema_version + 1);
  close_out oc;
  load_must_fail "schema version mismatch" dir;
  synthesis_survives dir

let test_foreign_library () =
  (* a file whose embedded digest does not match its name's digest is
     rejected (content-addressing is verified, not trusted) *)
  with_dir @@ fun dir ->
  populate dir;
  let real = cache_file dir in
  let other = Cache_file.file_path ~dir ~lib_digest:(String.make 32 '0') in
  Sys.rename real other;
  (* the canonical name is now absent: cold start, not an error *)
  (match Session.load_into (Session.create ()) ~lib ~dir with
  | Ok n -> checki "missing file is a cold start" 0 n
  | Error e -> Alcotest.fail e);
  Sys.rename other real;
  let content = In_channel.with_open_bin real In_channel.input_all in
  Out_channel.with_open_bin (Cache_file.file_path ~dir ~lib_digest:(Cache_file.lib_digest lib))
    (fun oc -> Out_channel.output_string oc content);
  (* intact file still loads after the rename dance *)
  match Session.load_into (Session.create ()) ~lib ~dir with
  | Ok n -> checkb "intact file loads" true (n >= 1)
  | Error e -> Alcotest.fail e

let test_missing_cold_start () =
  with_dir @@ fun dir ->
  let s = Session.create () in
  (match Session.load_into s ~lib ~dir with
  | Ok n -> checki "empty dir loads nothing" 0 n
  | Error e -> Alcotest.fail e);
  match Session.load_into s ~lib ~dir:(Filename.concat dir "nope") with
  | Ok n -> checki "missing dir loads nothing" 0 n
  | Error e -> Alcotest.fail e

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cache"
    [
      ( "roundtrip",
        [
          tc "save/load bit-identical with disk hits" test_roundtrip;
          tc "disk entry actually served" test_disk_entry_served;
          tc "fingerprint collision recomputes" test_collision_from_disk;
        ] );
      ( "synthesize",
        [
          tc "warm run identical to cold" test_synthesize_warm_identical;
        ] );
      ( "robustness",
        [
          tc "truncated file" test_truncated;
          tc "bad magic" test_bad_magic;
          tc "schema version mismatch" test_version_mismatch;
          tc "missing file is a cold start" test_missing_cold_start;
          tc "foreign/renamed files" test_foreign_library;
        ] );
    ]
