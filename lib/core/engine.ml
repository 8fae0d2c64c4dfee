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

(* each field's slot in a tally, in the order of [fields] *)
let generated = 0
let evaluated = 1
let cache_hits = 2
let cache_misses = 3
let evictions = 4
let power_sims = 5
let power_skipped = 6
let batches = 7
let disk_hits = 8

let counters_of (a : int array) =
  {
    Session.generated = a.(generated);
    evaluated = a.(evaluated);
    cache_hits = a.(cache_hits);
    cache_misses = a.(cache_misses);
    evictions = a.(evictions);
    power_sims = a.(power_sims);
    power_skipped = a.(power_skipped);
    batches = a.(batches);
    disk_hits = a.(disk_hits);
  }

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

(* A bump adds [n] to one field of the batch's tally ([pending], and
   per family [pending_fams]), and nothing else. When the batch or
   single evaluation ends, [flush] hands the tally to every store: the
   engine's totals, its session (one lock) and the registry (armed, one
   atomic add per non-zero field). *)
let pending_of t f =
  match List.assq f t.pending_fams with
  | a -> a
  | exception Not_found ->
      let a = Array.make (Array.length fields) 0 in
      t.pending_fams <- (f, a) :: t.pending_fams;
      a

let bump t ?fam field n =
  t.pending.(field) <- t.pending.(field) + n;
  match fam with
  | None -> ()
  | Some f ->
      let a = pending_of t f in
      a.(field) <- a.(field) + n

(* adds [a] to the registry (a no-op disarmed) and zeroes it *)
let write handles (a : int array) =
  Array.iteri
    (fun i n ->
      if n <> 0 then begin
        Metrics.add handles.(i) n;
        a.(i) <- 0
      end)
    a

let flush t =
  let d = counters_of t.pending in
  let fams =
    List.filter_map
      (fun (f, a) ->
        if Array.exists (fun n -> n <> 0) a then Some (f.fam_name, counters_of a) else None)
      t.pending_fams
  in
  t.totals <- Session.add t.totals d;
  Session.bump t.session d fams;
  write total_handles t.pending;
  List.iter (fun (f, a) -> write f.fam_handles a) t.pending_fams

(* [f t], then the tally, also when [f] raises *)
let flushing t f =
  match f () with
  | v ->
      flush t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      flush t;
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

(* -- probe, then fill --------------------------------------------------- *)

let cache_probe = Span.probe Span.Move "probe"
let batch_probe = Span.probe Span.Move "batch"
let generate_probe = Span.probe Span.Move "generate"

(* Fingerprint and probe [designs] — (family label, design) pairs —
   each on its own: duplicates are not merged, so each is probed before
   any is inserted, and each misses. *)
let probe t designs =
  Span.span cache_probe @@ fun () ->
  Array.map
    (fun (fam, design) ->
      let fp = Design.fingerprint design in
      let hit = match t.costs with None -> None | Some c -> Session.cost_find c fp design in
      (fam, design, fp, hit))
    designs

let count_hit t ?fam (e : entry) =
  bump t ?fam cache_hits 1;
  if e.e_from_disk then bump t ?fam disk_hits 1

(* The entry of a miss whose stage 1 ran, inserted into the cache. *)
let insert t ?fam fp design (partial : Cost.eval) =
  (* infeasible designs never need a simulation — born complete *)
  let state = if partial.Cost.feasible then Session.Partial partial else Session.Full partial in
  let e = { e_design = design; e_state = Atomic.make state; e_from_disk = false } in
  bump t ?fam evaluated 1;
  (match t.costs with
  | None -> ()
  | Some c ->
      let evicted = Session.cost_insert c fp e in
      if evicted > 0 then bump t ?fam evictions evicted);
  e

(* Run stage 1 for every miss of [probed] and insert them, in order.
   Returns each design's entry and, for a feasible miss when
   [keep_sched], the stage-1 schedule its power stage can replay; other
   schedules are dropped at once, since held across a batch they would
   only survive minor collections. Several misses run on the pool and
   poll hard interruptions; a lone miss runs inline without polling,
   so a single evaluation never raises [Budget.Interrupted] ([Pass]
   calls those outside its interruption handler). *)
let fill t ~keep_sched probed =
  let run (_, design, _, hit) =
    match hit with
    | Some e -> Either.Left e
    | None ->
        let partial, sched = stage1 t design in
        Either.Right (partial, if keep_sched && partial.Cost.feasible then Some sched else None)
  in
  let misses =
    Array.fold_left (fun n (_, _, _, hit) -> if Option.is_none hit then n + 1 else n) 0 probed
  in
  let staged = if misses > 1 then on_pool t run probed else Array.map run probed in
  Array.map2
    (fun (fam, design, fp, _) -> function
      | Either.Left e ->
          count_hit t ?fam e;
          (e, None)
      | Either.Right (partial, sched) ->
          bump t ?fam cache_misses 1;
          (insert t ?fam fp design partial, sched))
    probed staged

let eval_internal t ~need_power design =
  flushing t @@ fun () ->
  let e, sched = (fill t ~keep_sched:need_power (probe t [| (None, design) |])).(0) in
  if need_power && complete_power t ?sched e then bump t power_sims 1;
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

(* Area selection, bound first. Hits compete at once; every miss gets
   its {!Cost.area_bound}, and stage 1 runs in (bound, index) order,
   [jobs] candidates a wave, while the next candidate [can_win]. Since
   the incumbent only improves, the first that cannot win ends the
   batch: its bound, and every later one, is above the incumbent's
   value or equal to it with a later index, so its value is too, and
   the winner and its eval are those of evaluating every candidate.
   Only the candidates stage 1 ran on enter the cache. *)
let select_area t probed ~best ~consider =
  let can_win (b, i, _) =
    match !best with None -> b < infinity | Some (bv, bi, _) -> better (b, i) (bv, bi)
  in
  let misses = ref [] in
  Array.iteri
    (fun i (fam, _, _, hit) ->
      match hit with
      | Some e ->
          count_hit t ?fam e;
          consider i e
      | None ->
          bump t ?fam cache_misses 1;
          misses := i :: !misses)
    probed;
  let bound i =
    let _, design, _, _ = probed.(i) in
    let b = Cost.area_bound ~sched_cache:t.sched_cache ~memo:t.memo t.ctx t.cs design in
    (Cost.area_bound_value b, i, b)
  in
  let misses = Array.of_list (List.rev !misses) in
  let bounds = if Array.length misses > 1 then on_pool t bound misses else Array.map bound misses in
  Array.sort
    (fun (b1, i1, _) (b2, i2, _) -> match Float.compare b1 b2 with 0 -> Int.compare i1 i2 | c -> c)
    bounds;
  let n = Array.length bounds in
  let rec waves k =
    let len = ref 0 in
    while k + !len < n && !len < t.policy.jobs && can_win bounds.(k + !len) do
      incr len
    done;
    if !len > 0 then begin
      check_token t;
      let wave = Array.sub bounds k !len in
      let staged =
        on_pool t
          (fun (_, i, bound) ->
            let _, design, _, _ = probed.(i) in
            fst
              (Cost.schedule_stage ~sched_cache:t.sched_cache ~memo:t.memo ~bound t.ctx t.cs
                 design))
          wave
      in
      Array.iteri
        (fun w (_, i, _) ->
          let fam, design, fp, _ = probed.(i) in
          consider i (insert t ?fam fp design staged.(w)))
        wave;
      waves (k + !len)
    end
  in
  waves 0

(* Power selection: stage 1 for every miss; every candidate whose
   simulation is done competes now, and the rest are simulated
   cheapest-bound-first, in waves sized to the pool, skipping every
   candidate whose lower bound proves it cannot beat the incumbent.
   Skips never change the winner: objective >= bound > best value. *)
let select_power t probed ~best ~consider =
  let filled = fill t ~keep_sched:true probed in
  let fam i =
    let f, _, _, _ = probed.(i) in
    f
  in
  let entry i = fst filled.(i) in
  let pending = ref [] in
  Array.iteri
    (fun i (e, _) ->
      match Atomic.get e.e_state with
      | Session.Partial _ -> pending := i :: !pending
      | Session.Full _ -> consider i e)
    filled;
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
        let beats_best b = match !best with None -> true | Some (bv, _, _) -> b <= bv in
        let skipped, rest = List.partition (fun (b, _) -> not (beats_best b)) pending in
        List.iter (fun (_, i) -> bump t ?fam:(fam i) power_skipped 1) skipped;
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
            if sims.(k) then bump t ?fam:(fam i) power_sims 1;
            consider i (entry i))
          wave;
        waves (List.filteri (fun k _ -> k >= wave_size) rest)
  in
  waves pending

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
        bump t ?fam generated 1;
        (fam, design))
      raw
  in
  let probed = probe t labelled in
  (* Candidates are indices; ties resolve to the earliest generated.
     The incumbent keeps its entry, read when the batch ends. *)
  let best = ref None in
  let consider i e =
    let v = Cost.objective_value t.obj (Session.entry_eval e) in
    if v < infinity then
      match !best with
      | Some (bv, bi, _) when not (better (v, i) (bv, bi)) -> ()
      | _ -> best := Some (v, i, e)
  in
  (match t.obj with
  | Cost.Area -> select_area t probed ~best ~consider
  | Cost.Power -> select_power t probed ~best ~consider);
  bump t batches 1;
  (* the candidate as generated: on a hit the entry holds an equal
     design another batch or engine made, and handing that copy on
     would make the memos keyed by physical identity depend on which
     copy was cached first *)
  Option.map
    (fun (v, i, e) ->
      let tag, design = raw.(i) in
      (tag, design, Session.entry_eval e, v))
    !best
