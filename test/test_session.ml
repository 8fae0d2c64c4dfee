(* Tests for the session-scoped memoization layer: the locked table
   primitive (eviction bounds, counter accuracy, build-exactly-once
   under domain contention) and the headline property — concurrent
   synthesis runs sharing one session are bit-identical to solo runs
   on fresh sessions. *)

module Design = Hsyn_rtl.Design
module Library = Hsyn_modlib.Library
module Shard_tbl = Hsyn_util.Shard_tbl
module Sched = Hsyn_sched.Sched
module Cost = Hsyn_core.Cost
module Engine = Hsyn_core.Engine
module Pass = Hsyn_core.Pass
module Session = Hsyn_core.Session
module S = Hsyn_core.Synthesize

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end

module T = Shard_tbl.Make (Int_key)

(* ------------------------------------------------------------------ *)
(* Shard_tbl *)

let test_capacity_bound () =
  let tbl = T.create ~capacity:8 () in
  for k = 0 to 99 do
    ignore (T.set tbl k (k * 3) : int)
  done;
  checkb "size within capacity" true (T.length tbl <= 8);
  T.validate tbl;
  (* resident entries kept their values *)
  T.iter (fun k v -> checki "value" (k * 3) v) tbl

(* Keys that all hash alike must still fill the table to its capacity:
   the bound is the table's, not a slice of it. *)
module Same_hash = Shard_tbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash _ = 0
end)

let test_capacity_whatever_the_hash () =
  let tbl = Same_hash.create ~capacity:8 () in
  for k = 1 to 8 do
    checki "no eviction while below capacity" 0 (Same_hash.set tbl k k)
  done;
  checki "all 8 keys resident" 8 (Same_hash.length tbl);
  for k = 1 to 8 do
    checkb "key resident" true (Same_hash.mem tbl k)
  done;
  let s = Same_hash.stats tbl in
  checki "nothing evicted" 0 s.Shard_tbl.evictions;
  checki "size" 8 s.Shard_tbl.size;
  checki "the ninth key evicts one" 1 (Same_hash.set tbl 9 9);
  checki "still at capacity" 8 (Same_hash.length tbl);
  Same_hash.validate tbl

let test_tiny_capacity () =
  let tbl = T.create ~capacity:2 () in
  for k = 0 to 19 do
    ignore (T.set tbl k k : int)
  done;
  checkb "tiny capacity respected" true (T.length tbl <= 2);
  T.validate tbl

let test_counter_accuracy () =
  let tbl = T.create ~capacity:4 () in
  for k = 1 to 4 do
    checki "no eviction yet" 0 (T.set tbl k (10 * k))
  done;
  for k = 1 to 4 do
    match T.find_opt tbl k with
    | Some v -> checki "hit value" (10 * k) v
    | None -> Alcotest.fail "resident key missing"
  done;
  checkb "probe miss" true (T.find_opt tbl 99 = None);
  checki "insert beyond capacity evicts one" 1 (T.set tbl 5 50);
  (* every key was hit once, and one lap of second chance clears every
     mark, so the oldest goes *)
  checkb "oldest evicted" true (T.find_opt tbl 1 = None);
  let s = T.stats tbl in
  checki "hits" 4 s.Shard_tbl.hits;
  checki "misses" 2 s.Shard_tbl.misses (* key 99, then re-probe of evicted key 1 *);
  checki "insertions" 5 s.Shard_tbl.insertions;
  checki "evictions" 1 s.Shard_tbl.evictions;
  checki "size" 4 s.Shard_tbl.size;
  checki "capacity" 4 s.Shard_tbl.capacity;
  T.validate tbl

let test_second_chance () =
  let tbl = T.create ~capacity:2 () in
  ignore (T.set tbl 1 1 : int);
  ignore (T.set tbl 2 2 : int);
  (* touch key 1 so it survives the next eviction *)
  ignore (T.find_opt tbl 1 : int option);
  ignore (T.set tbl 3 3 : int);
  checkb "referenced key survived" true (T.mem tbl 1);
  checkb "unreferenced key evicted" false (T.mem tbl 2);
  checkb "new key resident" true (T.mem tbl 3);
  T.validate tbl

let test_find_or_build_once_parallel () =
  let tbl = T.create ~capacity:0 () in
  let n_keys = 50 in
  let builds = Atomic.make 0 in
  let worker () =
    for i = 0 to 999 do
      let k = i mod n_keys in
      let v =
        T.find_or_build tbl k (fun k ->
            Atomic.incr builds;
            Domain.cpu_relax ();
            k * 7)
      in
      if v <> k * 7 then failwith "wrong value from find_or_build"
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  (* unbounded table: every key is built exactly once, no matter how
     many domains race on it *)
  checki "each key built exactly once" n_keys (Atomic.get builds);
  checki "all keys resident" n_keys (T.length tbl);
  T.validate tbl;
  let s = T.stats tbl in
  checki "misses = builds" n_keys s.Shard_tbl.misses;
  checki "probes accounted" (5 * 1000) (s.Shard_tbl.hits + s.Shard_tbl.misses)

(* ------------------------------------------------------------------ *)
(* Engine-level sharing *)

let same_eval (a : Cost.eval) (b : Cost.eval) =
  Int64.bits_of_float a.Cost.area = Int64.bits_of_float b.Cost.area
  && Int64.bits_of_float a.Cost.power = Int64.bits_of_float b.Cost.power
  && Int64.bits_of_float a.Cost.energy_sample = Int64.bits_of_float b.Cost.energy_sample
  && a.Cost.makespan = b.Cost.makespan
  && a.Cost.feasible = b.Cost.feasible

let ctx = Tu.ctx ()

let test_engine_shared_session () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let cs = Sched.relaxed ~deadline:1000 d.Design.dfg in
  let sampling_ns = 20000. in
  let trace = Tu.trace d.Design.dfg in
  let session = Session.create () in
  let mk () =
    Engine.create ~session ~ctx ~cs ~sampling_ns ~trace ~objective:Cost.Power ()
  in
  let e1 = mk () in
  let v1 = Engine.evaluate e1 d in
  let e2 = mk () in
  let v2 = Engine.evaluate e2 d in
  checkb "bit-identical across engines" true (same_eval v1 v2);
  checki "first engine missed" 1 (Engine.counters e1).Session.cache_misses;
  checki "second engine hit" 1 (Engine.counters e2).Session.cache_hits;
  checki "second engine computed nothing" 0 (Engine.counters e2).Session.evaluated;
  (* the session aggregates both engines *)
  let t = Session.totals session in
  checki "session hits" 1 t.Session.cache_hits;
  checki "session misses" 1 t.Session.cache_misses

let test_engine_distinct_contexts_do_not_alias () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let cs = Sched.relaxed ~deadline:1000 d.Design.dfg in
  let trace = Tu.trace d.Design.dfg in
  let session = Session.create () in
  let mk ctx =
    Engine.create ~session ~ctx ~cs ~sampling_ns:20000. ~trace ~objective:Cost.Power ()
  in
  let v5 = Engine.evaluate (mk ctx) d in
  let ctx3 = Tu.ctx ~vdd:3.3 () in
  let e3 = mk ctx3 in
  let v3 = Engine.evaluate e3 d in
  (* a different supply voltage is a different evaluation context: the
     3.3 V engine must compute, not hit the 5 V entry *)
  checki "no cross-context hit" 0 (Engine.counters e3).Session.cache_hits;
  checkb "evals differ across contexts" true (not (same_eval v5 v3));
  let s = Session.stats session in
  checki "two context caches" 2 s.Session.contexts

(* A session keeps the 64 evaluation contexts it states, whatever
   their keys hash to; a 65th replaces one of them. *)
let test_session_keeps_64_contexts () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let cs = Sched.relaxed ~deadline:1000 d.Design.dfg in
  let trace = Tu.trace d.Design.dfg in
  let session = Session.create () in
  let add_context i =
    let sampling_ns = 20000. +. Float.of_int i in
    ignore (Session.cost_cache session ~capacity:16 ~ctx ~cs ~sampling_ns ~trace : Session.cost_cache)
  in
  for i = 1 to 64 do
    add_context i
  done;
  checki "64 contexts kept" 64 (Session.stats session).Session.contexts;
  add_context 65;
  checki "a 65th replaces one" 64 (Session.stats session).Session.contexts

(* ------------------------------------------------------------------ *)
(* Concurrent synthesis over one shared session *)

let small_config =
  {
    S.Config.default with
    S.max_moves = 6;
    max_passes = 1;
    max_candidates = 4;
    trace_length = 4;
    seed = 7;
    vdd_candidates = [ 5.0; 3.3 ];
    max_clocks = 2;
  }

let mk_request ?session (registry, dfg) =
  let sampling_ns =
    4.0 *. Float.max 1.0 (S.min_sampling_ns Library.default registry dfg)
  in
  match
    S.Request.make ~config:small_config ?session ~lib:Library.default ~registry ~dfg
      ~objective:Cost.Power ~sampling_ns ()
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

(* Every generated candidate belongs to a move family, so a session's
   total equals the sum over its families. *)
let test_family_totals_sum () =
  let session = Session.create () in
  let registry, hier = Tu.hier_graph () in
  (match S.synthesize (mk_request ~session (registry, hier)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let families = Session.family_totals session in
  checkb "several families" true (List.length families > 1);
  checki "generated" (Session.totals session).Session.generated
    (List.fold_left (fun n (_, c) -> n + c.Session.generated) 0 families)

let test_concurrent_shared_session () =
  let problems =
    let registry, hier = Tu.hier_graph () in
    [|
      (Hsyn_dfg.Registry.create (), Tu.small_graph ());
      (Hsyn_dfg.Registry.create (), Tu.add_chain_graph ());
      (registry, hier);
      (* duplicate of the first problem: guarantees cross-run overlap *)
      (Hsyn_dfg.Registry.create (), Tu.small_graph ());
    |]
  in
  (* solo baselines, each on its own fresh session *)
  let solo = Array.map (fun p -> S.synthesize (mk_request p)) problems in
  Array.iter
    (fun r -> match r with Ok _ -> () | Error e -> Alcotest.fail ("solo run failed: " ^ e))
    solo;
  let session = Session.create () in
  (* start the runs together, so that they overlap *)
  let ready = Atomic.make 0 in
  let domains =
    Array.map
      (fun p ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < Array.length problems do
              Domain.cpu_relax ()
            done;
            S.synthesize (mk_request ~session p)))
      problems
  in
  let shared = Array.map Domain.join domains in
  Array.iteri
    (fun i r ->
      checkb
        (Printf.sprintf "problem %d bit-identical to solo" i)
        true (same_outcome solo.(i) r))
    shared;
  (* each run reports its own counts, whatever ran beside it; cache
     hits, evaluations and simulations legitimately differ on a warm
     session *)
  let own_counts (r : S.result) =
    let s = r.S.stats in
    ( (s.Pass.passes, s.Pass.moves_tried),
      List.map (fun (m : Pass.committed_move) -> (m.Pass.cm_family, m.Pass.cm_description))
        s.Pass.committed,
      (s.Pass.engine.Session.generated, s.Pass.engine.Session.batches) )
  in
  Array.iteri
    (fun i r ->
      match (solo.(i), r) with
      | Ok a, Ok b ->
          checkb
            (Printf.sprintf "problem %d reports its solo run's counts" i)
            true
            (own_counts a = own_counts b)
      | _ -> ())
    shared;
  (* a warmed sequential rerun on the same session must hit the caches *)
  let before = (Session.stats session).Session.cost_tbl.Shard_tbl.hits in
  let rerun = S.synthesize (mk_request ~session problems.(0)) in
  checkb "rerun still bit-identical" true (same_outcome solo.(0) rerun);
  let after = (Session.stats session).Session.cost_tbl.Shard_tbl.hits in
  checkb "warmed rerun hit the shared cost cache" true (after > before)

(* Two identical requests side by side on one session. A batch that
   hits an entry the other run inserted goes on with its own candidate,
   not the entry's equal copy: with the copy, the memos keyed by
   physical identity (move B's answers, prepared scheduling contexts,
   part energies) hit or miss with timing, and so do the counts. So in
   every repetition the generated candidates, the moves tried and move
   B's nested runs are each twice a solo run's; hits, evaluations and
   simulations may legitimately differ on a warm session. *)
let test_concurrent_identical_counts () =
  let module Metrics = Hsyn_obs.Metrics in
  let module Suite = Hsyn_benchmarks.Suite in
  let request session =
    let b = Suite.test1 () in
    let sampling_ns = 2.2 *. S.min_sampling_ns Library.default b.Suite.registry b.Suite.dfg in
    match
      S.Request.make ~session ~lib:Library.default ~registry:b.Suite.registry ~dfg:b.Suite.dfg
        ~objective:Cost.Power ~sampling_ns ()
    with
    | Ok req -> req
    | Error msg -> failwith msg
  in
  let sum prefix =
    Metrics.fold
      (fun ~base ~labels:_ view acc ->
        match view with
        | Metrics.Counter_view n when String.starts_with ~prefix base -> acc + n
        | _ -> acc)
      0
  in
  let resynth_runs = Metrics.counter "moves.resynth.runs" in
  (* run [n] copies at once on one fresh session, from a reset registry *)
  let counts n =
    Metrics.reset ();
    let session = Session.create () in
    let ready = Atomic.make 0 in
    let runs =
      List.init n (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < n do
                Domain.cpu_relax ()
              done;
              S.synthesize (request session)))
    in
    List.iter
      (fun d -> match Domain.join d with Ok _ -> () | Error e -> Alcotest.fail e)
      runs;
    ( (Session.totals session).Session.generated,
      sum "moves.committed." + sum "moves.reverted.",
      Metrics.counter_value resynth_runs )
  in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let gen, moves, resynth = counts 1 in
  checkb "move B ran" true (resynth > 0);
  for rep = 1 to 3 do
    let gen2, moves2, resynth2 = counts 2 in
    checki (Printf.sprintf "repetition %d: generated" rep) (2 * gen) gen2;
    checki (Printf.sprintf "repetition %d: moves tried" rep) (2 * moves) moves2;
    checki (Printf.sprintf "repetition %d: move-B runs" rep) (2 * resynth) resynth2
  done

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "session"
    [
      ( "shard_tbl",
        [
          tc "capacity bound" test_capacity_bound;
          tc "tiny capacity" test_tiny_capacity;
          tc "capacity whatever the hash" test_capacity_whatever_the_hash;
          tc "counter accuracy" test_counter_accuracy;
          tc "second chance" test_second_chance;
          tc "parallel build-once" test_find_or_build_once_parallel;
        ] );
      ( "engine",
        [
          tc "shared session across engines" test_engine_shared_session;
          tc "contexts do not alias" test_engine_distinct_contexts_do_not_alias;
          tc "64 contexts kept" test_session_keeps_64_contexts;
        ] );
      ( "synthesize",
        [
          tc "4 concurrent runs, one session" test_concurrent_shared_session;
          tc "family totals sum to the total" test_family_totals_sum;
          tc "2 identical runs count twice a solo run" test_concurrent_identical_counts;
        ] );
    ]
