module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Pool = Hsyn_util.Pool
module Metrics = Hsyn_obs.Metrics
module Span = Hsyn_obs.Trace

type policy = { jobs : int; cache_capacity : int }

let default_policy = { jobs = Pool.default_jobs (); cache_capacity = 4096 }

type entry = Session.entry = {
  e_design : Design.t;
  e_state : Session.entry_state Atomic.t;
  e_from_disk : bool;
}

(* The registry mirror of the counters, engine.<field> plus a suffix:
   "" for the totals and ".<family>" for a family, one handle per
   [Session.counters] field in declaration order. *)
let fields =
  [|
    "generated"; "evaluated"; "cache_hits"; "cache_misses"; "evictions"; "power_sims";
    "power_skipped"; "batches"; "disk_hits";
  |]

let handles suffix = Array.map (fun field -> Metrics.counter ("engine." ^ field ^ suffix)) fields
let total_handles = handles ""

type family = { fam_name : string; fam_handles : Metrics.counter array }

let family name = { fam_name = name; fam_handles = handles ("." ^ name) }

type t = {
  policy : policy;
  ctx : Design.ctx;
  cs : Sched.constraints;
  sampling_ns : float;
  trace : int array list;
  n_samples : int;
  obj : Cost.objective;
  token : Budget.token option;
  session : Session.t;
  sched_cache : Sched.Cache.t;  (* = [Session.sched_cache session], fetched once *)
  costs : Session.cost_cache option;
      (* the session's fingerprint cache for this engine's evaluation
         context; [None] when [policy.cache_capacity <= 0] (the engine
         then neither probes nor inserts) *)
  memo : Cost.memo;
      (* what this engine's candidates share: module areas, and value
         streams with module-part energies; dropped with the engine *)
  mutable totals : Session.counters;
  pending : int array;
  mutable pending_fams : (family * int array) list;
}

(* [d]'s fields added into [a], in the order of [fields] *)
let accumulate (a : int array) (d : Session.counters) =
  a.(0) <- a.(0) + d.generated;
  a.(1) <- a.(1) + d.evaluated;
  a.(2) <- a.(2) + d.cache_hits;
  a.(3) <- a.(3) + d.cache_misses;
  a.(4) <- a.(4) + d.evictions;
  a.(5) <- a.(5) + d.power_sims;
  a.(6) <- a.(6) + d.power_skipped;
  a.(7) <- a.(7) + d.batches;
  a.(8) <- a.(8) + d.disk_hits

(* Armed, a bump adds its delta to the engine's unwritten totals
   ([pending], and per family [pending_fams]); they reach the registry
   when the batch or single evaluation ends ([flush_metrics]), one
   atomic add per non-zero field instead of several per candidate. *)
let pending_of t f =
  match List.assq f t.pending_fams with
  | a -> a
  | exception Not_found ->
      let a = Array.make (Array.length fields) 0 in
      t.pending_fams <- (f, a) :: t.pending_fams;
      a

let bump t ?fam d =
  t.totals <- Session.add t.totals d;
  match fam with
  | None ->
      Session.bump t.session d;
      if Metrics.is_enabled () then accumulate t.pending d
  | Some f ->
      Session.bump t.session ~family:f.fam_name d;
      if Metrics.is_enabled () then begin
        accumulate t.pending d;
        accumulate (pending_of t f) d
      end

let write handles (a : int array) =
  Array.iteri
    (fun i n ->
      if n <> 0 then begin
        Metrics.add handles.(i) n;
        a.(i) <- 0
      end)
    a

let flush_metrics t =
  write total_handles t.pending;
  List.iter (fun (f, a) -> write f.fam_handles a) t.pending_fams

(* [f t], then the unwritten counters, also when [f] raises *)
let flushing t f =
  match f () with
  | v ->
      flush_metrics t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      flush_metrics t;
      Printexc.raise_with_backtrace e bt

let create ?(policy = default_policy) ?session ?token ~ctx ~cs ~sampling_ns ~trace ~objective () =
  let session = match session with Some s -> s | None -> Session.create () in
  let costs =
    if policy.cache_capacity > 0 then
      Some
        (Session.cost_cache session ~capacity:policy.cache_capacity ~ctx ~cs ~sampling_ns ~trace)
    else None
  in
  {
    policy = { policy with jobs = max 1 policy.jobs };
    ctx;
    cs;
    sampling_ns;
    trace;
    n_samples = List.length trace;
    obj = objective;
    token;
    session;
    sched_cache = Session.sched_cache session;
    costs;
    memo = Cost.memo ctx ~trace;
    totals = Session.zero;
    pending = Array.make (Array.length fields) 0;
    pending_fams = [];
  }

(* Cooperative interruption: the deadline and cancellation cut
   candidate batches short. *)
let check_token t = match t.token with Some tok -> Budget.check tok | None -> ()

let cancel_poll t =
  match t.token with
  | None -> fun () -> false
  | Some tok -> fun () -> Budget.interrupted tok <> None

let raise_interrupted t =
  match t.token with
  | Some tok -> (
      match Budget.interrupted tok with
      | Some r -> raise (Budget.Interrupted r)
      | None -> raise (Budget.Interrupted Budget.Cancelled))
  | None -> raise (Budget.Interrupted Budget.Cancelled)

(* [Pool.map_array] on the engine's pool; a fired hard interruption
   surfaces as [Budget.Interrupted]. *)
let on_pool t f arr =
  try Pool.map_array ~cancel:(cancel_poll t) (Pool.shared t.policy.jobs) f arr
  with Pool.Cancelled -> raise_interrupted t

let objective t = t.obj
let ctx t = t.ctx
let constraints t = t.cs
let sampling_ns t = t.sampling_ns
let trace t = t.trace
let interrupted t = Option.bind t.token Budget.interrupted
let counters t = t.totals
let session t = t.session
let cache_size t = match t.costs with Some c -> Session.cost_size c | None -> 0

(* -- staged evaluation primitives -------------------------------------- *)

let stage1 t design = Cost.schedule_stage ~sched_cache:t.sched_cache ~memo:t.memo t.ctx t.cs design

(* Fill the power stage into an entry; a no-op when already done.
   Returns true when a simulation actually ran. [?sched] is the
   design's stage-1 schedule when the caller still holds it; cache
   entries do not keep schedules (memory stays flat), so completing a
   cached entry schedules it again. Safe under sharing and on pool
   workers: a concurrent engine upgrading the same entry computes the
   same bits, so the losing writer's [Atomic.set] is idempotent. *)
let complete_power t ?sched (e : entry) =
  match Atomic.get e.e_state with
  | Session.Full _ -> false
  | Session.Partial ev ->
      let full =
        Cost.power_stage ~sched_cache:t.sched_cache ?sched ~memo:t.memo t.ctx t.cs
          ~sampling_ns:t.sampling_ns ~trace:t.trace e.e_design ev
      in
      Atomic.set e.e_state (Session.Full full);
      true

(* -- the one probe-and-fill path --------------------------------------- *)

(* Fingerprint and probe [designs] — (family label, design) pairs —
   run stage 1 for the misses and insert them, in order. Returns each
   design's entry and, for a feasible miss when [keep_sched], the
   stage-1 schedule its power stage can replay; other schedules are
   dropped at once, since held across a batch they would only survive
   minor collections. Duplicates are not merged: each is probed before
   any is inserted, so each misses. Several misses run on the pool and
   poll hard interruptions; a lone miss runs inline without polling,
   so a single evaluation never raises [Budget.Interrupted] ([Pass]
   calls those outside its interruption handler). *)
let cache_probe = Span.probe Span.Move "probe"
let batch_probe = Span.probe Span.Move "batch"
let generate_probe = Span.probe Span.Move "generate"

let fill t ~keep_sched designs =
  let probed =
    Span.span cache_probe @@ fun () ->
    Array.map
      (fun (fam, design) ->
        let fp = Design.fingerprint design in
        let hit =
          match t.costs with None -> None | Some c -> Session.cost_find c fp design
        in
        (fam, design, fp, hit))
      designs
  in
  let fill_one (_, design, _, hit) =
    match hit with
    | Some e -> (e, None)
    | None ->
        let partial, sched = stage1 t design in
        let feasible = partial.Cost.feasible in
        (* infeasible designs never need a simulation — born complete *)
        let state = if feasible then Session.Partial partial else Session.Full partial in
        ( { e_design = design; e_state = Atomic.make state; e_from_disk = false },
          if keep_sched && feasible then Some sched else None )
  in
  let misses =
    Array.fold_left (fun n (_, _, _, hit) -> if Option.is_none hit then n + 1 else n) 0 probed
  in
  let filled = if misses > 1 then on_pool t fill_one probed else Array.map fill_one probed in
  Array.iter2
    (fun (fam, _, fp, hit) (e, _) ->
      match hit with
      | Some _ ->
          bump t ?fam
            { Session.zero with cache_hits = 1; disk_hits = Bool.to_int e.e_from_disk }
      | None -> (
          bump t ?fam { Session.zero with cache_misses = 1; evaluated = 1 };
          match t.costs with
          | None -> ()
          | Some c ->
              let evicted = Session.cost_insert c fp e in
              if evicted > 0 then bump t ?fam { Session.zero with evictions = evicted }))
    probed filled;
  filled

let eval_internal t ~need_power design =
  flushing t @@ fun () ->
  let e, sched = (fill t ~keep_sched:need_power [| (None, design) |]).(0) in
  if need_power && complete_power t ?sched e then bump t { Session.zero with power_sims = 1 };
  Session.entry_eval e

let evaluate t design = eval_internal t ~need_power:(t.obj = Cost.Power) design
let evaluate_with_power t design = eval_internal t ~need_power:true design

(* -- batch best-candidate selection ------------------------------------ *)

let take_n n seq =
  let rec go acc n seq =
    if n <= 0 then List.rev acc
    else
      match seq () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons (x, rest) -> go (x :: acc) (n - 1) rest
  in
  go [] n seq

let better (v1, i1) (v2, i2) = v1 < v2 || (v1 = v2 && i1 < i2)

let best_of t ?family ~limit seq =
  Span.span batch_probe @@ fun () ->
  flushing t @@ fun () ->
  check_token t;
  (* Generation happens here on the calling domain: pulling the lazy
     sequence may recurse into nested synthesis (move B), which must
     not run on pool workers. *)
  let raw = Span.span generate_probe (fun () -> take_n (max 0 limit) seq |> Array.of_list) in
  let labelled =
    Array.map
      (fun (tag, design) ->
        let fam = Option.map (fun f -> f tag) family in
        bump t ?fam { Session.zero with generated = 1 };
        (fam, design))
      raw
  in
  let filled = fill t ~keep_sched:(t.obj = Cost.Power) labelled in
  let fam i = fst labelled.(i) in
  let entry i = fst filled.(i) in
  (* Candidates are indices; ties resolve to the earliest generated. *)
  let best = ref None in
  let consider i =
    let v = Cost.objective_value t.obj (Session.entry_eval (entry i)) in
    if v < infinity then
      match !best with
      | Some (bv, bi) when not (better (v, i) (bv, bi)) -> ()
      | _ -> best := Some (v, i)
  in
  (* Every candidate whose objective is already known competes now:
     all of them for area, which stage 1 determines, and for power the
     entries whose simulation is done. *)
  let pending = ref [] in
  Array.iteri
    (fun i (e, _) ->
      match Atomic.get e.e_state with
      | Session.Partial _ when t.obj = Cost.Power -> pending := i :: !pending
      | _ -> consider i)
    filled;
  (* Simulate the rest cheapest-bound-first, in waves sized to the
     pool, skipping every candidate whose lower bound proves it
     cannot beat the incumbent. Skips never change the winner:
     objective >= bound > best value. *)
  let bound i =
    let e = entry i in
    Cost.objective_lower_bound t.obj t.ctx ~sampling_ns:t.sampling_ns ~n_samples:t.n_samples
      (Session.entry_eval e) e.e_design
  in
  let pending = List.rev_map (fun i -> (bound i, i)) !pending |> List.sort compare in
  let wave_size = max (2 * t.policy.jobs) 8 in
  let rec waves = function
    | [] -> ()
    | pending ->
        check_token t;
        let beats_best b = match !best with None -> true | Some (bv, _) -> b <= bv in
        let skipped, rest = List.partition (fun (b, _) -> not (beats_best b)) pending in
        List.iter (fun (_, i) -> bump t ?fam:(fam i) { Session.zero with power_skipped = 1 }) skipped;
        let wave = take_n wave_size (List.to_seq rest) in
        let sims =
          on_pool t
            (fun (_, i) ->
              let e, sched = filled.(i) in
              complete_power t ?sched e)
            (Array.of_list wave)
        in
        List.iteri
          (fun k (_, i) ->
            if sims.(k) then bump t ?fam:(fam i) { Session.zero with power_sims = 1 };
            consider i)
          wave;
        waves (List.filteri (fun k _ -> k >= wave_size) rest)
  in
  waves pending;
  bump t { Session.zero with batches = 1 };
  Option.map
    (fun (v, i) ->
      let e = entry i in
      (fst raw.(i), e.e_design, Session.entry_eval e, v))
    !best
