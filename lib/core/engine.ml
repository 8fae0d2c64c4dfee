module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Pool = Hsyn_util.Pool
module Metrics = Hsyn_obs.Metrics
module Span = Hsyn_obs.Trace

(* The counters record lives in [Session] so sessions can aggregate
   across engines; re-exported here with a type equation so existing
   [Engine.counters] field accesses keep working. *)
type counters = Session.counters = {
  generated : int;
  evaluated : int;
  cache_hits : int;
  cache_misses : int;
  evictions : int;
  power_sims : int;
  power_skipped : int;
  batches : int;
  disk_hits : int;
  wall_s : float;
}

let zero = Session.zero
let add = Session.add
let sub = Session.sub
let pp_counters = Session.pp_counters

type policy = { jobs : int; cache_capacity : int; staged : bool }

let default_policy = { jobs = Pool.default_jobs (); cache_capacity = 4096; staged = true }

type entry = Session.entry = {
  e_design : Design.t;
  e_state : Session.entry_state Atomic.t;
  e_from_disk : bool;
}

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
  mutable prepared : Sched.Prepared.t option;
      (* scheduling context of the graph last evaluated; candidates in a
         batch share their graph physically, so this is one lookup per
         batch instead of one per candidate. Written only by the domain
         driving the engine (workers just read it). *)
  mutable totals : counters;
  families : (string, counters) Hashtbl.t;
}

let bump_family tbl fam d =
  let cur = match Hashtbl.find_opt tbl fam with Some c -> c | None -> zero in
  Hashtbl.replace tbl fam (add cur d)

(* Mirror a counter delta into the metrics registry as engine.<field>
   (plus engine.<field>.<family>). Only reached when metrics are
   enabled, so the interning cost never touches the default path. *)
let metrics_bump fam d =
  let put field n =
    if n <> 0 then begin
      Metrics.add (Metrics.counter ("engine." ^ field)) n;
      match fam with
      | None -> ()
      | Some f -> Metrics.add (Metrics.counter ("engine." ^ field ^ "." ^ f)) n
    end
  in
  put "generated" d.generated;
  put "evaluated" d.evaluated;
  put "cache_hits" d.cache_hits;
  put "cache_misses" d.cache_misses;
  put "evictions" d.evictions;
  put "power_sims" d.power_sims;
  put "power_skipped" d.power_skipped;
  put "batches" d.batches;
  put "disk_hits" d.disk_hits;
  if d.wall_s <> 0. then Metrics.facc (Metrics.fcounter "engine.wall_s") d.wall_s

let bump t ?fam d =
  t.totals <- add t.totals d;
  Session.bump t.session ?family:fam d;
  if Metrics.is_enabled () then metrics_bump fam d;
  match fam with None -> () | Some f -> bump_family t.families f d

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
    prepared = None;
    totals = zero;
    families = Hashtbl.create 8;
  }

(* Cooperative interruption: hard budget events (deadline, cancel) cut
   candidate batches short. Quotas are deliberately NOT polled here —
   they are only consulted at move boundaries by [Pass], which keeps
   quota-truncated runs deterministic. *)
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

let objective t = t.obj
let counters t = t.totals
let session t = t.session
let cache_size t = match t.costs with Some c -> Session.cost_size c | None -> 0

let sorted_families tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let family_counters t = sorted_families t.families

(* -- cache ------------------------------------------------------------- *)

let cache_insert t fp (e : entry) =
  match t.costs with
  | None -> ()
  | Some cache ->
      let evicted = Session.cost_insert cache fp e in
      if evicted > 0 then bump t { zero with evictions = evicted }

let cache_find t fp design =
  match t.costs with None -> None | Some cache -> Session.cost_find cache fp design

(* -- staged evaluation primitives -------------------------------------- *)

(* Make sure [t.prepared] matches [design]'s graph. Must only be called
   from the engine's owning domain, never from pool workers. *)
let prime_prepared t (design : Design.t) =
  match t.prepared with
  | Some p when Sched.Prepared.dfg p == design.Design.dfg -> ()
  | _ -> t.prepared <- Some (Sched.prepared_for ~cache:t.sched_cache design.Design.dfg)

let stage1 t (design : Design.t) =
  let prepared =
    match t.prepared with
    | Some p when Sched.Prepared.dfg p == design.Design.dfg -> Some p
    | _ -> None
  in
  Cost.schedule_stage ~sched_cache:t.sched_cache ?prepared t.ctx t.cs design

(* [?sched] is the design's stage-1 schedule when the caller still
   holds it; cache entries do not keep schedules (memory stays flat),
   so completing a cached entry schedules it again. *)
let stage2 t ?sched design partial =
  Cost.power_stage ~sched_cache:t.sched_cache ?sched t.ctx t.cs ~sampling_ns:t.sampling_ns
    ~trace:t.trace design partial

(* Fill the power stage into an entry; a no-op when already done.
   Returns true when a simulation actually ran. Safe under sharing: a
   concurrent engine upgrading the same entry computes the same bits,
   so the losing writer's [Atomic.set] is idempotent. *)
let complete_power t ?sched (e : entry) =
  match Atomic.get e.e_state with
  | Session.Full _ -> false
  | Session.Partial ev ->
      Atomic.set e.e_state (Session.Full (stage2 t ?sched e.e_design ev));
      true

let fresh_entry t ?(need_power = false) design =
  let partial, sched = stage1 t design in
  let state =
    (* infeasible designs never need a simulation — born complete *)
    if partial.Cost.feasible then Session.Partial partial else Session.Full partial
  in
  let e = { e_design = design; e_state = Atomic.make state; e_from_disk = false } in
  if need_power then ignore (complete_power t ~sched e : bool);
  e

let eval_internal t ~need_power design =
  prime_prepared t design;
  let fp = Design.fingerprint design in
  match cache_find t fp design with
  | Some e ->
      let sims = if need_power && complete_power t e then 1 else 0 in
      bump t
        { zero with cache_hits = 1; power_sims = sims; disk_hits = (if e.e_from_disk then 1 else 0) };
      Session.entry_eval e
  | None ->
      let e = fresh_entry t ~need_power design in
      let sims = if need_power && (Session.entry_eval e).Cost.feasible then 1 else 0 in
      bump t { zero with cache_misses = 1; evaluated = 1; power_sims = sims };
      cache_insert t fp e;
      Session.entry_eval e

let evaluate t design = eval_internal t ~need_power:(t.obj = Power) design
let evaluate_with_power t design = eval_internal t ~need_power:true design

(* -- batch best-candidate selection ------------------------------------ *)

(* Candidate state during a [best_of] batch. *)
type 'a cand = {
  c_idx : int;  (* generation index; ties resolve to the smallest *)
  c_tag : 'a;
  c_fam : string option;
  c_fp : int64;
  c_entry : entry;
  c_sched : Sched.schedule option;  (* stage-1 schedule of a miss the power stage will simulate *)
}

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
  Span.span Span.Move "batch" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  check_token t;
  let pool = Pool.shared t.policy.jobs in
  let cancel = cancel_poll t in
  let fam x = Option.map (fun f -> f x) family in
  (* Generation happens here on the calling domain: pulling the lazy
     sequence may recurse into nested synthesis (move B), which must
     not run on pool workers. *)
  let raw = take_n (max 0 limit) seq |> Array.of_list in
  Array.iteri
    (fun _ (tag, _) -> bump t ?fam:(fam tag) { zero with generated = 1 })
    raw;
  (* All candidates in a batch share their graph physically; prime the
     prepared context here, before workers start reading it. *)
  if Array.length raw > 0 then prime_prepared t (snd raw.(0));
  (* Stage 1 (schedule + area) for every cache miss, in parallel. Cache
     probes, in-batch dedup and counter updates stay on this domain:
     duplicate designs within the batch (generators do produce them)
     share one evaluation and count as hits. *)
  let batch_seen : (int64, entry) Hashtbl.t = Hashtbl.create 16 in
  let probed =
    Array.mapi
      (fun i (tag, design) ->
        let fp = Design.fingerprint design in
        let hit =
          match cache_find t fp design with
          | Some e -> Some e
          | None -> (
              match Hashtbl.find_opt batch_seen fp with
              | Some e when Design.equal e.e_design design -> Some e
              | _ ->
                  (* placeholder entry; its state is filled from the
                     stage-1 results below before anyone reads it *)
                  let e =
                    {
                      e_design = design;
                      e_state =
                        Atomic.make
                          (Session.Partial
                             {
                               Cost.area = 0.;
                               power = Float.nan;
                               energy_sample = Float.nan;
                               makespan = 0;
                               feasible = false;
                             });
                      e_from_disk = false;
                    }
                  in
                  Hashtbl.replace batch_seen fp e;
                  None)
        in
        (i, tag, design, fp, hit))
      raw
  in
  let stage1_results =
    try
      Pool.map_array ~cancel pool
        (fun (_, _, design, _, hit) ->
          match hit with
          | None ->
              (* keep the schedule only for a candidate the power stage
                 will simulate: held across the batch, the others would
                 survive minor collections for nothing *)
              let partial, sched = stage1 t design in
              let keep = t.obj = Cost.Power && partial.Cost.feasible in
              Some (partial, if keep then Some sched else None)
          | Some _ -> None)
        probed
    with Pool.Cancelled -> raise_interrupted t
  in
  let cands =
    Array.map2
      (fun (i, tag, design, fp, hit) s1 ->
        match (hit, s1) with
        | Some e, _ ->
            bump t ?fam:(fam tag)
              { zero with cache_hits = 1; disk_hits = (if e.e_from_disk then 1 else 0) };
            { c_idx = i; c_tag = tag; c_fam = fam tag; c_fp = fp; c_entry = e; c_sched = None }
        | None, Some (partial, sched) ->
            bump t ?fam:(fam tag) { zero with cache_misses = 1; evaluated = 1 };
            let e =
              match Hashtbl.find_opt batch_seen fp with
              | Some e when e.e_design == design -> e
              | _ ->
                  {
                    e_design = design;
                    e_state = Atomic.make (Session.Partial partial);
                    e_from_disk = false;
                  }
            in
            Atomic.set e.e_state
              (if partial.Cost.feasible then Session.Partial partial else Session.Full partial);
            cache_insert t fp e;
            { c_idx = i; c_tag = tag; c_fam = fam tag; c_fp = fp; c_entry = e; c_sched = sched }
        | None, None -> assert false)
      probed stage1_results
  in
  let finish best =
    bump t { zero with batches = 1; wall_s = Unix.gettimeofday () -. t0 };
    Option.map
      (fun (c, v) -> (c.c_tag, c.c_entry.e_design, Session.entry_eval c.c_entry, v))
      best
  in
  match t.obj with
  | Cost.Area ->
      (* Area is fully determined by stage 1 — pick directly. *)
      let best = ref None in
      Array.iter
        (fun c ->
          let v = Cost.objective_value t.obj (Session.entry_eval c.c_entry) in
          if v < infinity then
            match !best with
            | Some (_, bv, bi) when not (better (v, c.c_idx) (bv, bi)) -> ()
            | _ -> best := Some (c, v, c.c_idx))
        cands;
      finish (Option.map (fun (c, v, _) -> (c, v)) !best)
  | Cost.Power ->
      (* Seed the incumbent from candidates whose power is already
         known (cache hits with a completed simulation). *)
      let best = ref None in
      let consider c =
        let v = Cost.objective_value t.obj (Session.entry_eval c.c_entry) in
        if v < infinity then
          match !best with
          | Some (_, bv, bi) when not (better (v, c.c_idx) (bv, bi)) -> ()
          | _ -> best := Some (c, v, c.c_idx)
      in
      let pending = ref [] in
      Array.iter
        (fun c ->
          match Atomic.get c.c_entry.e_state with
          | Session.Full ev -> if ev.Cost.feasible then consider c
          | Session.Partial _ -> pending := c :: !pending)
        cands;
      (* Simulate the rest cheapest-bound-first, in waves sized to the
         pool, skipping every candidate whose lower bound proves it
         cannot beat the incumbent. Skips never change the winner:
         objective >= bound > best value. *)
      let bound c =
        Cost.objective_lower_bound t.obj t.ctx ~sampling_ns:t.sampling_ns
          ~n_samples:t.n_samples (Session.entry_eval c.c_entry) c.c_entry.e_design
      in
      let pending =
        List.rev_map (fun c -> (bound c, c)) !pending
        |> List.sort (fun (b1, c1) (b2, c2) -> compare (b1, c1.c_idx) (b2, c2.c_idx))
      in
      let wave_size = max (2 * Pool.jobs pool) 8 in
      let rec waves = function
        | [] -> ()
        | pending ->
            check_token t;
            let beats_best b =
              (not t.policy.staged)
              || match !best with None -> true | Some (_, bv, _) -> b <= bv
            in
            let skipped, rest = List.partition (fun (b, _) -> not (beats_best b)) pending in
            List.iter
              (fun (_, c) -> bump t ?fam:c.c_fam { zero with power_skipped = 1 })
              skipped;
            (match rest with
            | [] -> ()
            | rest ->
                let wave = take_n wave_size (List.to_seq rest) in
                let rest = List.filteri (fun i _ -> i >= List.length wave) rest in
                let evals =
                  try
                    Pool.map_array ~cancel pool
                      (fun (_, c) ->
                        stage2 t ?sched:c.c_sched c.c_entry.e_design (Session.entry_eval c.c_entry))
                      (Array.of_list wave)
                  with Pool.Cancelled -> raise_interrupted t
                in
                List.iteri
                  (fun i (_, c) ->
                    Atomic.set c.c_entry.e_state (Session.Full evals.(i));
                    bump t ?fam:c.c_fam { zero with power_sims = 1 };
                    consider c)
                  wave;
                waves rest)
      in
      waves pending;
      finish (Option.map (fun (c, v, _) -> (c, v)) !best)
