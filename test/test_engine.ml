(* Tests for the staged, memoized, parallel evaluation engine and its
   supporting pieces (worker pool, fingerprinting, order statistics).

   The central property: the engine is an optimization of the cost
   oracle, never a change to it. Every result must be bit-identical to
   a direct Cost.evaluate call, for both objectives, at any jobs
   count, with the cache on or off. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Library = Hsyn_modlib.Library
module Fu = Hsyn_modlib.Fu
module Sched = Hsyn_sched.Sched
module Cost = Hsyn_core.Cost
module Engine = Hsyn_core.Engine
module Session = Hsyn_core.Session
module Budget = Hsyn_core.Budget
module Clib = Hsyn_core.Clib
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Pool = Hsyn_util.Pool
module Stats = Hsyn_util.Stats
module Metrics = Hsyn_obs.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-12)
let ctx = Tu.ctx ()

(* Bitwise equality of evaluations, nan-tolerant (nan = power not
   computed must match on both sides). *)
let same_eval (a : Cost.eval) (b : Cost.eval) =
  Int64.bits_of_float a.Cost.area = Int64.bits_of_float b.Cost.area
  && Int64.bits_of_float a.Cost.power = Int64.bits_of_float b.Cost.power
  && Int64.bits_of_float a.Cost.energy_sample = Int64.bits_of_float b.Cost.energy_sample
  && a.Cost.makespan = b.Cost.makespan
  && a.Cost.feasible = b.Cost.feasible

let mk_engine ?policy ?(objective = Cost.Area) ?(deadline = 1000) (d : Design.t) =
  let cs = Sched.relaxed ~deadline d.Design.dfg in
  let sampling_ns = Float.of_int deadline *. 20. in
  let trace = Tu.trace d.Design.dfg in
  ( Engine.create ?policy ~ctx ~cs ~sampling_ns ~trace ~objective (),
    fun ?(with_power = objective = Cost.Power) dd ->
      Cost.evaluate ~with_power ctx cs ~sampling_ns ~trace dd )

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_map_array () =
  List.iter
    (fun jobs ->
      let pool = Pool.shared jobs in
      checki "jobs" jobs (Pool.jobs pool);
      let input = Array.init 100 Fun.id in
      let out = Pool.map_array pool (fun x -> x * x) input in
      Alcotest.check (Alcotest.array Alcotest.int) "squares"
        (Array.map (fun x -> x * x) input)
        out;
      checkb "empty ok" true (Pool.map_array pool (fun x -> x) [||] = [||]))
    [ 1; 2; 4 ]

exception Boom of int

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      let pool = Pool.shared jobs in
      match Pool.map_array pool (fun x -> if x = 5 then raise (Boom x) else x) (Array.init 10 Fun.id) with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom 5 -> ())
    [ 1; 4 ]

(* A task that dies must surface its own exception on the caller
   domain — never [assert false], never a lost worker. The pool must
   also stay usable for the next batch (all workers alive, queue
   empty). *)
let test_pool_worker_death_reraises () =
  List.iter
    (fun jobs ->
      let pool = Pool.shared jobs in
      (match Pool.map_array pool (fun x -> if x >= 0 then raise (Boom x) else x) (Array.init 16 Fun.id) with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom _ -> ());
      (* the pool survives a fully-poisoned batch *)
      let out = Pool.map_array pool (fun x -> x + 1) (Array.init 16 Fun.id) in
      Alcotest.check (Alcotest.array Alcotest.int) "pool still works" (Array.init 16 succ) out)
    [ 2; 4 ]

(* An exception escaping the [cancel] poll itself is captured like a
   task exception: re-raised on the caller, no deadlocked batch. *)
let test_pool_raising_cancel_captured () =
  List.iter
    (fun jobs ->
      let pool = Pool.shared jobs in
      match
        Pool.map_array
          ~cancel:(fun () -> raise (Boom (-1)))
          pool
          (fun x -> x * 2)
          (Array.init 8 Fun.id)
      with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom (-1) -> ()
      | exception Pool.Cancelled -> Alcotest.fail "cancel exception must win over Cancelled")
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Stats order statistics *)

let test_stats_median_percentile () =
  checkf "median empty" 0. (Stats.median []);
  checkf "median singleton" 3. (Stats.median [ 3. ]);
  checkf "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  checkf "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  let l = List.init 101 Float.of_int in
  checkf "p0 is min" 0. (Stats.percentile 0. l);
  checkf "p100 is max" 100. (Stats.percentile 100. l);
  checkf "p25" 25. (Stats.percentile 25. l);
  checkf "p90" 90. (Stats.percentile 90. l);
  checkf "clamped" 100. (Stats.percentile 150. l);
  checkf "interpolates" 0.5 (Stats.percentile 50. [ 0.; 1. ])

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let test_fingerprint_stability () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  checkb "deterministic" true (Design.fingerprint d = Design.fingerprint d);
  let d2 = Tu.initial ctx (Tu.small_graph ()) in
  checkb "structural" true (Design.fingerprint d = Design.fingerprint d2);
  (* any structural change must (with overwhelming probability) move
     the fingerprint *)
  let alt =
    match d.Design.insts.(0) with
    | Design.Simple fu -> (
        match Library.alternatives Library.default fu with
        | a :: _ -> Design.with_inst d 0 (Design.Simple a)
        | [] -> Alcotest.fail "no alternatives in default library")
    | Design.Module _ -> Alcotest.fail "expected simple instance"
  in
  checkb "sensitive to instances" true (Design.fingerprint d <> Design.fingerprint alt)

(* test1, hierarchical, power objective, at a reduced effort. *)
let synthesize_test1 policy =
  let b = Suite.test1 () in
  let min_ns = S.min_sampling_ns Library.default b.Suite.registry b.Suite.dfg in
  let config =
    {
      S.default_config with
      S.max_moves = 4;
      max_passes = 1;
      max_candidates = 16;
      trace_length = 6;
      max_clocks = 1;
      clib_effort = { Clib.default_effort with Clib.max_moves = 2; max_passes = 1; engine = policy };
      engine = policy;
    }
  in
  match
    Result.bind
      (S.Request.make ~config ~lib:Library.default ~registry:b.Suite.registry ~dfg:b.Suite.dfg
         ~objective:Cost.Power ~sampling_ns:(2.2 *. min_ns) ())
      S.synthesize
  with
  | Ok r -> r
  | Error msg -> Alcotest.failf "synthesis failed: %s" msg

(* test1's final design, its neighbourhood, and the designs that
   instead change one module part into one of the part's neighbours,
   so that equality and hashing are exercised through module parts. *)
let suite_final_neighbourhood () =
  let d = (synthesize_test1 { Engine.default_policy with Engine.jobs = 1 }).S.design in
  let part_variants =
    List.concat
      (List.init (Array.length d.Design.insts) (fun i ->
           match d.Design.insts.(i) with
           | Design.Simple _ -> []
           | Design.Module rm ->
               List.concat_map
                 (fun (behavior, part) ->
                   List.map
                     (fun part' ->
                       let parts =
                         List.map
                           (fun (b, p) -> if b = behavior then (b, part') else (b, p))
                           rm.Design.parts
                       in
                       Design.with_inst d i (Design.Module { rm with Design.parts }))
                     (List.tl (Tu.neighbourhood Library.default part)))
                 rm.Design.parts))
  in
  Tu.neighbourhood Library.default d @ part_variants

let test_equal_is_structural () =
  let ds = suite_final_neighbourhood () in
  let final = List.hd ds in
  let copy : Design.t = Marshal.from_string (Marshal.to_string final []) 0 in
  checkb "the copy's graph is physically distinct" true (copy.Design.dfg != final.Design.dfg);
  checkb "has modules" true
    (Array.exists (function Design.Module _ -> true | Design.Simple _ -> false) final.Design.insts);
  let all = copy :: ds in
  checkb "a neighbourhood" true (List.length all > 50);
  List.iter
    (fun a -> List.iter (fun b -> checkb "Design.equal = (=)" (a = b) (Design.equal a b)) all)
    all

(* The top-level graph's hash is stored with its index: fingerprints
   computed with graphs interleaved (A, B, A) must equal those computed
   on a fresh domain in another order. *)
let test_fingerprint_interleaved () =
  let a = suite_final_neighbourhood () in
  let copy = List.map (fun d -> (Marshal.from_string (Marshal.to_string d []) 0 : Design.t)) a in
  let b = [ Tu.initial ctx (Tu.small_graph ()); Tu.initial ctx (Tu.add_chain_graph ()) ] in
  let fps = List.map Design.fingerprint in
  let interleaved = List.concat_map (fun d -> fps (d :: b)) a in
  (* backwards, then put back in order *)
  let fps_reversed l = List.rev (fps (List.rev l)) in
  let fresh_a, fresh_b = Domain.join (Domain.spawn (fun () -> (fps_reversed copy, fps_reversed b))) in
  let expect = List.concat_map (fun fa -> fa :: fresh_b) fresh_a in
  checkb "interleaved = fresh" true (interleaved = expect);
  checkb "the copy fingerprints as the original" true (fps a = fresh_a)

let test_reader_slices_match_rescan () =
  List.iter
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:12 in
      let ix = g.Dfg.index in
      (* reference: whole-graph rescan, one entry per reading port, in
         ascending node order *)
      for v = 0 to Design.n_values g - 1 do
        let p = Design.value_of_index g v in
        let expect = ref [] in
        Array.iteri
          (fun dst (node : Dfg.node) ->
            Array.iter (fun src -> if src = p then expect := dst :: !expect) node.Dfg.ins)
          g.Dfg.nodes;
        let lo = ix.Dfg.reader_off.(v) in
        let slice = Array.sub ix.Dfg.readers lo (ix.Dfg.reader_off.(v + 1) - lo) in
        checkb "same consumers" true (Array.to_list slice = List.rev !expect)
      done)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Engine ≡ Cost.evaluate *)

let suite_designs () =
  List.map
    (fun (b : Suite.t) -> Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg)
    (Suite.all ())

let test_engine_equals_direct () =
  List.iter
    (fun objective ->
      List.iter
        (fun d ->
          let eng, direct = mk_engine ~objective d in
          let via_engine = Engine.evaluate eng d in
          checkb "evaluate matches direct" true (same_eval via_engine (direct d));
          (* second query: must hit the cache and return the same bits *)
          let again = Engine.evaluate eng d in
          checkb "cached result identical" true (same_eval via_engine again);
          checkb "cache hit counted" true ((Engine.counters eng).Session.cache_hits >= 1);
          (* full-power query upgrades in place and matches a direct
             full evaluation *)
          let full = Engine.evaluate_with_power eng d in
          checkb "with-power matches direct" true (same_eval full (direct ~with_power:true d)))
        (suite_designs ()))
    [ Cost.Area; Cost.Power ]

let test_engine_random_graphs () =
  List.iter
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:10 in
      let d = Tu.initial ctx g in
      List.iter
        (fun objective ->
          List.iter
            (fun policy ->
              let eng, direct = mk_engine ~policy ~objective d in
              checkb "policy-independent" true (same_eval (Engine.evaluate eng d) (direct d)))
            [
              { Engine.jobs = 1; cache_capacity = 0 };
              { Engine.jobs = 4; cache_capacity = 64 };
            ])
        [ Cost.Area; Cost.Power ])
    (List.init 8 succ)

(* [best_of] against a sequential reference fold over the same
   candidates (earliest-wins tie-breaking, full evaluation of every
   candidate). *)
let test_best_of_matches_reference () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let lib = Library.default in
  let variants =
    List.concat
      (List.init
         (Array.length d.Design.insts)
         (fun i ->
           match d.Design.insts.(i) with
           | Design.Simple fu ->
               List.map (fun alt -> Design.with_inst d i (Design.Simple alt)) (Library.alternatives lib fu)
           | Design.Module _ -> []))
  in
  checkb "have variants" true (List.length variants > 2);
  List.iter
    (fun objective ->
      List.iter
        (fun policy ->
          let eng, direct = mk_engine ~policy ~objective d in
          let tagged = List.mapi (fun i v -> (i, v)) variants in
          let reference =
            List.fold_left
              (fun best (i, v) ->
                let e = direct ~with_power:true v in
                let value = Cost.objective_value objective e in
                if value = infinity then best
                else
                  match best with
                  | Some (_, _, bv) when bv <= value -> best
                  | _ -> Some (i, e, value))
              None tagged
          in
          match
            ( Engine.best_of eng ~limit:max_int (List.to_seq tagged),
              reference )
          with
          | None, None -> ()
          | Some _, None | None, Some _ -> Alcotest.fail "feasibility disagreement"
          | Some (i, _, e, value), Some (ri, re, rvalue) ->
              checki "same winner" ri i;
              checkb "same value" true (Int64.bits_of_float value = Int64.bits_of_float rvalue);
              checkb "same area bits" true
                (Int64.bits_of_float e.Cost.area = Int64.bits_of_float re.Cost.area);
              (* power mode must have fully evaluated the winner *)
              if objective = Cost.Power then
                checkb "winner power bits" true
                  (Int64.bits_of_float e.Cost.power = Int64.bits_of_float re.Cost.power))
        [
          { Engine.jobs = 1; cache_capacity = 0 };
          { Engine.jobs = 1; cache_capacity = 128 };
          { Engine.jobs = 4; cache_capacity = 128 };
        ])
    [ Cost.Area; Cost.Power ]

let test_best_of_limit_and_counters () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let eng, _ = mk_engine ~objective:Cost.Area d in
  let pulled = ref 0 in
  let seq =
    Seq.map
      (fun i ->
        incr pulled;
        (i, d))
      (Seq.init 50 Fun.id)
  in
  (match Engine.best_of eng ~limit:5 seq with
  | Some (0, _, _, _) -> ()
  | _ -> Alcotest.fail "expected candidate 0");
  checki "generation truncated" 5 !pulled;
  let c = Engine.counters eng in
  checki "generated" 5 c.Session.generated;
  checki "batches" 1 c.Session.batches;
  (* 5 identical designs, each probed before any is inserted: each
     misses. The first one's area bound is its value, so the bound
     drops the other four, which cannot beat it on the earliest-index
     tie rule: one candidate is evaluated, and only it enters the
     cache *)
  checki "every candidate misses" 5 c.Session.cache_misses;
  checki "one candidate evaluated" 1 c.Session.evaluated;
  checki "only the evaluated one cached" 1 (Engine.cache_size eng);
  checki "no hits" 0 c.Session.cache_hits

(* Area selection bounds every miss before scheduling it, and runs
   stage 1 only on the candidates that can still win. On a suite
   behavior's neighbourhood, at the initial design's own makespan (so
   slower units make candidates infeasible), an engine with a cache
   evaluates fewer candidates than it misses, inserts exactly the ones
   it evaluated, and returns the winner and eval of the cacheless
   engine and of evaluating every candidate directly. *)
let test_area_bound_prunes () =
  let b = Suite.dct () in
  let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
  let deadline = (Sched.schedule ctx (Sched.relaxed ~deadline:1000 d.Design.dfg) d).Sched.makespan in
  let tagged = List.mapi (fun i v -> (i, v)) (Tu.neighbourhood Library.default d) in
  let _, direct = mk_engine ~deadline d in
  let reference =
    List.fold_left
      (fun best (i, v) ->
        let e = direct v in
        let value = Cost.objective_value Cost.Area e in
        if value = infinity then best
        else
          match best with
          | Some (_, _, bv) when bv <= value -> best
          | _ -> Some (i, e, value))
      None tagged
  in
  let ri, re, rvalue =
    match reference with Some r -> r | None -> Alcotest.fail "no feasible candidate"
  in
  checkb "some candidate is infeasible" true
    (List.exists (fun (_, v) -> not (direct v).Cost.feasible) tagged);
  List.iter
    (fun jobs ->
      let run cache_capacity =
        let eng, _ = mk_engine ~policy:{ Engine.jobs; cache_capacity } ~deadline d in
        match Engine.best_of eng ~limit:max_int (List.to_seq tagged) with
        | Some (i, _, e, value) -> (eng, i, e, value)
        | None -> Alcotest.fail "no winner"
      in
      let eng, i, e, value = run 4096 in
      let _, bi, be, bvalue = run 0 in
      checki "the cacheless engine's winner" bi i;
      checkb "the cacheless engine's eval" true (same_eval be e);
      checkb "the cacheless engine's value" true
        (Int64.bits_of_float bvalue = Int64.bits_of_float value);
      checki "the exhaustive winner" ri i;
      checkb "the exhaustive eval" true (same_eval re e);
      checkb "the exhaustive value" true (Int64.bits_of_float rvalue = Int64.bits_of_float value);
      let c = Engine.counters eng in
      checki "every candidate misses" (List.length tagged) c.Session.cache_misses;
      checkb "fewer evaluated than missed" true (c.Session.evaluated < c.Session.cache_misses);
      checki "the evaluated ones are cached" c.Session.evaluated (Engine.cache_size eng))
    [ 1; 4 ]

let test_cache_eviction () =
  let designs = List.init 5 (fun s -> Tu.initial ctx (Tu.random_flat_graph (100 + s) ~n_inputs:2 ~n_ops:6)) in
  let eng, _ =
    mk_engine ~policy:{ Engine.jobs = 1; cache_capacity = 2 } (List.hd designs)
  in
  List.iter (fun d -> ignore (Engine.evaluate eng d)) designs;
  checkb "capacity respected" true (Engine.cache_size eng <= 2);
  checkb "evictions counted" true ((Engine.counters eng).Session.evictions >= 3)

let test_family_counters () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let eng, _ = mk_engine ~objective:Cost.Area d in
  let even = Engine.family "even" and odd = Engine.family "odd" in
  ignore
    (Engine.best_of eng
       ~family:(fun i -> if i mod 2 = 0 then even else odd)
       ~limit:10
       (Seq.init 10 (fun i -> (i, d))));
  match Session.family_totals (Engine.session eng) with
  | [ ("even", ce); ("odd", co) ] ->
      checki "even generated" 5 ce.Session.generated;
      checki "odd generated" 5 co.Session.generated
  | l -> Alcotest.failf "unexpected families (%d)" (List.length l)

(* The three entry points share one probe-and-fill path: whichever
   comes first misses and inserts the one entry, the others hit it. A
   miss that needs its power schedules the design once for both
   stages. *)
let test_one_entry_per_design () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  (* the kernel counts only while metrics are armed *)
  let schedules f =
    Metrics.set_enabled true;
    Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
    let before = (Sched.stats ()).Sched.schedules in
    let r = f () in
    ((Sched.stats ()).Sched.schedules - before, r)
  in
  let best_of eng =
    match Engine.best_of eng ~limit:1 (Seq.return ((), d)) with
    | Some (_, _, e, _) -> e
    | None -> Alcotest.fail "the design is feasible"
  in
  List.iter
    (fun objective ->
      let eng, direct = mk_engine ~objective d in
      let n, full = schedules (fun () -> Engine.evaluate_with_power eng d) in
      checki "a miss with power schedules once" 1 n;
      checkb "with power matches direct" true (same_eval full (direct ~with_power:true d));
      checkb "evaluate hits it" true (same_eval full (Engine.evaluate eng d));
      checkb "best_of hits it" true (same_eval full (best_of eng));
      let c = Engine.counters eng in
      checki "one entry" 1 (Engine.cache_size eng);
      checki "one miss" 1 c.Session.cache_misses;
      checki "then hits" 2 c.Session.cache_hits;
      checki "one simulation" 1 c.Session.power_sims;
      (* the other order: an area-only entry upgraded in place *)
      let eng, direct = mk_engine ~objective d in
      let area = best_of eng in
      checkb "best_of matches direct" true (same_eval area (direct d));
      checkb "evaluate hits it" true (same_eval area (Engine.evaluate eng d));
      checkb "with power upgrades it" true
        (same_eval (Engine.evaluate_with_power eng d) (direct ~with_power:true d));
      let c = Engine.counters eng in
      checki "one entry" 1 (Engine.cache_size eng);
      checki "one miss" 1 c.Session.cache_misses;
      checki "then hits" 2 c.Session.cache_hits)
    [ Cost.Area; Cost.Power ]

(* [Pass] makes single evaluations outside its interruption handler,
   so with a cancelled token they must still answer; a batch raises. *)
let test_single_evaluations_never_poll () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let token = Budget.start Budget.unlimited in
  Budget.cancel token;
  List.iter
    (fun objective ->
      let eng =
        Engine.create ~token ~ctx ~cs:(Sched.relaxed ~deadline:1000 d.Design.dfg)
          ~sampling_ns:20000. ~trace:(Tu.trace d.Design.dfg) ~objective ()
      in
      checkb "evaluate answers" true (Engine.evaluate eng d).Cost.feasible;
      checkb "evaluate_with_power answers" true (Engine.evaluate_with_power eng d).Cost.feasible;
      match Engine.best_of eng ~limit:1 (Seq.return ((), d)) with
      | _ -> Alcotest.fail "a batch must poll the cancelled token"
      | exception Budget.Interrupted Budget.Cancelled -> ())
    [ Cost.Area; Cost.Power ]

(* ------------------------------------------------------------------ *)
(* The engine's memo: candidates reuse the streams of their (graph,
   bound parts) and the energies of their module parts. Each test below
   builds designs that share what a too-short key would confuse, and
   checks every engine result against a direct evaluation. *)

module B = Hsyn_dfg.Dfg.Builder
module Op = Hsyn_dfg.Op
module Registry = Hsyn_dfg.Registry

(* A two-input variant [y = op a b] of a behavior. *)
let variant name op =
  let b = B.create name in
  let a = B.input b "a" and c = B.input b "b" in
  B.output b ~label:"y" (B.op b ~label:"s" op [ a; c ]);
  B.finish b

let one_behavior_module registry ~name behavior v =
  { Design.rm_name = name; parts = [ (behavior, Tu.initial ~registry ctx v) ] }

let check_against_direct engine direct designs =
  List.iteri
    (fun i d ->
      let got = Engine.evaluate engine d in
      checkb (Printf.sprintf "candidate %d equals direct" i) true (same_eval got (direct d)))
    designs

(* One graph whose call is bound to modules built from two variants
   that compute different functions, a + b and a - b: the streams of
   one must never serve the other, nor the energy of one part the
   other, though both parts see the same invocations. *)
let test_memo_streams_keyed_by_parts () =
  let registry = Registry.create () in
  let f_add = variant "f_add" Op.Add and f_sub = variant "f_sub" Op.Sub in
  Registry.register registry "f" f_add;
  Registry.register registry "f" f_sub;
  let g =
    let b = B.create "top" in
    let x = B.input b "x" and y = B.input b "y" in
    let c = B.call b ~label:"c" ~behavior:"f" ~n_out:1 [ x; y ] in
    B.output b ~label:"o" (B.op b ~label:"m" Op.Mult [ c.(0); x ]);
    B.finish b
  in
  let d_add = Tu.initial ~registry ctx g in
  let d_sub =
    Design.with_inst d_add (Tu.inst_of d_add "c")
      (Design.Module (one_behavior_module registry ~name:"f#sub" "f" f_sub))
  in
  checkb "one graph" true (d_add.Design.dfg == d_sub.Design.dfg);
  let trace = Tu.trace g in
  checkb "the variants compute different functions" false
    (Hsyn_eval.Sim.(outputs d_add (run d_add trace) = outputs d_sub (run d_sub trace)));
  List.iter
    (fun order ->
      let engine, direct = mk_engine ~objective:Cost.Power d_add in
      check_against_direct engine direct order)
    [ [ d_add; d_sub; d_add; d_sub ]; [ d_sub; d_add ] ]

(* One module instance shared by two calls, in two designs on one
   graph with the same parts whose schedules start the calls in
   opposite orders: the multiplier feeding each call decides which is
   ready first. The part's merged invocation stream differs, so its
   energy must not be reused across the orders. *)
let test_memo_part_energy_keyed_by_call_order () =
  let registry = Registry.create () in
  Registry.register registry "f" (variant "f_add" Op.Add);
  let g =
    let b = B.create "top" in
    let x = B.input b "x" and y = B.input b "y" and z = B.input b "z" in
    let p = B.op b ~label:"p" Op.Mult [ x; y ] and q = B.op b ~label:"q" Op.Mult [ x; z ] in
    let c1 = B.call b ~label:"c1" ~behavior:"f" ~n_out:1 [ p; y ] in
    let c2 = B.call b ~label:"c2" ~behavior:"f" ~n_out:1 [ q; z ] in
    B.output b ~label:"o1" c1.(0);
    B.output b ~label:"o2" c2.(0);
    B.finish b
  in
  let d0 = Tu.initial ~registry ctx g in
  let shared =
    Design.compact (Design.with_binding d0 (Tu.node_id g "c2") (Tu.inst_of d0 "c1"))
  in
  let mult name = Design.Simple (Library.find_exn Library.default name) in
  let with_mults dp dq =
    Design.with_inst
      (Design.with_inst shared (Tu.inst_of shared "p") (mult dp))
      (Tu.inst_of shared "q") (mult dq)
  in
  let c1_first = with_mults "mult1" "mult2" and c2_first = with_mults "mult2" "mult1" in
  let starts d =
    let sch = Sched.schedule ctx (Sched.relaxed ~deadline:1000 g) d in
    (sch.Sched.start.(Tu.node_id g "c1"), sch.Sched.start.(Tu.node_id g "c2"))
  in
  let s1, s2 = starts c1_first and s1', s2' = starts c2_first in
  checkb "c1 starts first" true (s1 < s2);
  checkb "c2 starts first" true (s2' < s1');
  List.iter
    (fun order ->
      let engine, direct = mk_engine ~objective:Cost.Power shared in
      check_against_direct engine direct order)
    [ [ c1_first; c2_first ]; [ c2_first; c1_first ] ]

(* One module instance runs two behaviors, a + b and a * b, merged by
   embedding, and a call of each sees the same arguments: the two parts'
   invocation streams are the same words, so only the behavior in the
   key keeps one part's energy from serving the other. *)
let test_memo_part_energy_keyed_by_behavior () =
  let registry = Registry.create () in
  Registry.register registry "f" (variant "f_add" Op.Add);
  Registry.register registry "g" (variant "g_mult" Op.Mult);
  let g =
    let b = B.create "top" in
    let x = B.input b "x" and y = B.input b "y" in
    let c1 = B.call b ~label:"c1" ~behavior:"f" ~n_out:1 [ x; y ] in
    let c2 = B.call b ~label:"c2" ~behavior:"g" ~n_out:1 [ x; y ] in
    B.output b ~label:"o" (B.op b ~label:"s" Op.Sub [ c1.(0); c2.(0) ]);
    B.finish b
  in
  let d0 = Tu.initial ~registry ctx g in
  let module_at label =
    match d0.Design.insts.(Tu.inst_of d0 label) with
    | Design.Module rm -> rm
    | Design.Simple _ -> Alcotest.fail "a call on a simple unit"
  in
  let merged =
    match Hsyn_embed.Embed.merge_modules ctx ~name:"fg" (module_at "c1") (module_at "c2") with
    | Some (rm, _) -> rm
    | None -> Alcotest.fail "the two modules do not merge"
  in
  let d =
    Design.compact
      (Design.with_binding
         (Design.with_inst d0 (Tu.inst_of d0 "c1") (Design.Module merged))
         (Tu.node_id g "c2") (Tu.inst_of d0 "c1"))
  in
  checki "both calls on one module" (Tu.inst_of d "c1") (Tu.inst_of d "c2");
  checki "two parts" 2 (List.length merged.Design.parts);
  let engine, direct = mk_engine ~objective:Cost.Power d in
  check_against_direct engine direct [ d; d0; d ]

(* A behavior without inputs, called twice: every invocation of its
   part has the same (empty) argument words, so the words alone cannot
   tell one call on the module from two calls sharing it. The key's
   invocation count does, and the part's energy per invocation, its
   start-up transition spread over one or two invocations a sample,
   differs. *)
let test_memo_part_energy_keyed_by_invocation_count () =
  let registry = Registry.create () in
  let k =
    let b = B.create "k0" in
    B.output b ~label:"y" (B.op b ~label:"n" Op.Neg [ B.const b ~label:"c" 5 ]);
    B.finish b
  in
  Registry.register registry "k" k;
  let g =
    let b = B.create "top" in
    let x = B.input b "x" in
    let c1 = B.call b ~label:"c1" ~behavior:"k" ~n_out:1 [] in
    let c2 = B.call b ~label:"c2" ~behavior:"k" ~n_out:1 [] in
    let t = B.op b ~label:"t" Op.Add [ c1.(0); c2.(0) ] in
    B.output b ~label:"o" (B.op b ~label:"s" Op.Add [ t; x ]);
    B.finish b
  in
  let apart = Tu.initial ~registry ctx g in
  let shared =
    Design.compact (Design.with_binding apart (Tu.node_id g "c2") (Tu.inst_of apart "c1"))
  in
  checki "both calls on one module" (Tu.inst_of shared "c1") (Tu.inst_of shared "c2");
  List.iter
    (fun order ->
      let engine, direct = mk_engine ~objective:Cost.Power apart in
      check_against_direct engine direct order)
    [ [ apart; shared ]; [ shared; apart ] ]

(* Two modules with one name, one built from an adder and one from a
   multiplier, bound to the same call in two designs: their idle terms
   (clocked registers, unit capacitance) differ, so a table of idle
   terms must tell the modules apart by identity, not by name. *)
let test_memo_idle_terms_keyed_by_module () =
  let registry = Registry.create () in
  let f_add = variant "f_add" Op.Add and f_mult = variant "f_mult" Op.Mult in
  Registry.register registry "f" f_add;
  Registry.register registry "f" f_mult;
  let g =
    let b = B.create "top" in
    let x = B.input b "x" and y = B.input b "y" in
    B.output b ~label:"o" (B.call b ~label:"c" ~behavior:"f" ~n_out:1 [ x; y ]).(0);
    B.finish b
  in
  let d = Tu.initial ~registry ctx g in
  let with_module v =
    Design.with_inst d (Tu.inst_of d "c")
      (Design.Module (one_behavior_module registry ~name:"m" "f" v))
  in
  let d_add = with_module f_add and d_mult = with_module f_mult in
  List.iter
    (fun order ->
      let engine, direct = mk_engine ~objective:Cost.Power d_add in
      check_against_direct engine direct order)
    [ [ d_add; d_mult ]; [ d_mult; d_add ] ]

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: full synthesis must produce bit-identical
   results at any jobs count, and with the cost cache disabled. *)

let test_synthesis_determinism () =
  let run policy = (synthesize_test1 policy).S.eval in
  let direct = run { Engine.jobs = 1; cache_capacity = 0 } in
  let seq = run { Engine.jobs = 1; cache_capacity = 4096 } in
  let par = run { Engine.jobs = 4; cache_capacity = 4096 } in
  checkb "engine-on equals direct" true (same_eval direct seq);
  checkb "jobs=4 equals jobs=1" true (same_eval seq par)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "engine"
    [
      ( "pool",
        [
          tc "map_array" test_pool_map_array;
          tc "exception propagates" test_pool_exception_propagates;
          tc "worker death re-raises" test_pool_worker_death_reraises;
          tc "raising cancel captured" test_pool_raising_cancel_captured;
        ] );
      ("stats", [ tc "median/percentile" test_stats_median_percentile ]);
      ( "fingerprint",
        [
          tc "stability" test_fingerprint_stability;
          tc "Design.equal is structural" test_equal_is_structural;
          tc "interleaved graphs" test_fingerprint_interleaved;
          tc "consumer index" test_reader_slices_match_rescan;
        ] );
      ( "engine",
        [
          tc "equals direct on suite" test_engine_equals_direct;
          tc "random graphs, all policies" test_engine_random_graphs;
          tc "best_of matches reference" test_best_of_matches_reference;
          tc "limit and counters" test_best_of_limit_and_counters;
          tc "area bound prunes" test_area_bound_prunes;
          tc "cache eviction" test_cache_eviction;
          tc "family counters" test_family_counters;
          tc "one entry per design" test_one_entry_per_design;
          tc "single evaluations never poll" test_single_evaluations_never_poll;
        ] );
      ( "memo",
        [
          tc "streams keyed by bound parts" test_memo_streams_keyed_by_parts;
          tc "part energies keyed by call order" test_memo_part_energy_keyed_by_call_order;
          tc "part energies keyed by behavior" test_memo_part_energy_keyed_by_behavior;
          tc "part energies keyed by invocation count"
            test_memo_part_energy_keyed_by_invocation_count;
          tc "idle terms keyed by module" test_memo_idle_terms_keyed_by_module;
        ] );
      ("determinism", [ tc "jobs-independent synthesis" test_synthesis_determinism ]);
    ]
