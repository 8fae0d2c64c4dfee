module Dfg = Hsyn_dfg.Dfg
module Design = Hsyn_rtl.Design
module Fu = Hsyn_modlib.Fu
module Pqueue = Hsyn_util.Pqueue
module Shard_tbl = Hsyn_util.Shard_tbl
module Span = Hsyn_obs.Trace

type profile = { in_need : int array; out_ready : int array; busy : int }

type constraints = {
  input_arrival : int array;
  output_deadline : int array option;
  deadline : int;
}

let relaxed ~deadline (dfg : Dfg.t) =
  { input_arrival = Array.make (Array.length dfg.inputs) 0; output_deadline = None; deadline }

type schedule = { start : int array; avail : int array; makespan : int; feasible : bool }

let infinite_deadline = 1_000_000

(* ------------------------------------------------------------------ *)
(* Kernel selection.

   The event-driven kernel is the default; HSYN_SCHED=legacy (or
   [set_impl Legacy]) switches every entry point to the original
   time-stepped kernel, which is kept verbatim below as the reference
   for differential testing. *)

type impl = Event | Legacy

let impl_of_env () =
  match Sys.getenv_opt "HSYN_SCHED" with Some "legacy" -> Legacy | _ -> Event

let impl_ref = Atomic.make (impl_of_env ())
let set_impl i = Atomic.set impl_ref i
let impl () = Atomic.get impl_ref

(* ------------------------------------------------------------------ *)
(* Kernel counters *)

type stats = {
  schedules : int;
  legacy_schedules : int;
  events_popped : int;
  prepared_hits : int;
  prepared_builds : int;
}

let c_schedules = Atomic.make 0
let c_legacy = Atomic.make 0
let c_events = Atomic.make 0
let c_prep_hits = Atomic.make 0
let c_prep_builds = Atomic.make 0

let stats () =
  {
    schedules = Atomic.get c_schedules;
    legacy_schedules = Atomic.get c_legacy;
    events_popped = Atomic.get c_events;
    prepared_hits = Atomic.get c_prep_hits;
    prepared_builds = Atomic.get c_prep_builds;
  }

let zero_stats =
  { schedules = 0; legacy_schedules = 0; events_popped = 0; prepared_hits = 0; prepared_builds = 0 }

let sub_stats a b =
  {
    schedules = a.schedules - b.schedules;
    legacy_schedules = a.legacy_schedules - b.legacy_schedules;
    events_popped = a.events_popped - b.events_popped;
    prepared_hits = a.prepared_hits - b.prepared_hits;
    prepared_builds = a.prepared_builds - b.prepared_builds;
  }

let reset_stats () =
  Atomic.set c_schedules 0;
  Atomic.set c_legacy 0;
  Atomic.set c_events 0;
  Atomic.set c_prep_hits 0;
  Atomic.set c_prep_builds 0

let pp_stats fmt s =
  Format.fprintf fmt "@[<v>[sched] schedules: %d (%d legacy), events popped: %d@,[sched] prepared contexts: %d hits / %d builds@]"
    s.schedules s.legacy_schedules s.events_popped s.prepared_hits s.prepared_builds

(* ------------------------------------------------------------------ *)
(* Prepared scheduling context: everything that depends only on the
   DFG, not on the binding. The move loop evaluates thousands of
   candidate designs over one physically shared graph (functional
   design updates never replace [d.dfg]), so this is built once per
   graph and reused across every candidate evaluation. *)

module Prepared = struct
  type t = {
    p_dfg : Dfg.t;
    n_nodes : int;
    n_values : int;
    value_off : int array;  (* n_nodes + 1 prefix sums of n_out *)
    value_of : Dfg.port array;  (* per value id, its producing port *)
    topo_order : int array;
    topo_pos : int array;
    consumers : (int * int) array array;
        (* per value id: (consumer node, in port), ascending *)
  }

  let dfg t = t.p_dfg
  let value_index t ({ Dfg.node; out } : Dfg.port) = t.value_off.(node) + out

  let build (dfg : Dfg.t) =
    Span.span Span.Schedule "prepare" (fun () ->
        Atomic.incr c_prep_builds;
        let n_nodes = Array.length dfg.Dfg.nodes in
        let value_off = Array.make (n_nodes + 1) 0 in
        for id = 0 to n_nodes - 1 do
          value_off.(id + 1) <- value_off.(id) + dfg.Dfg.nodes.(id).Dfg.n_out
        done;
        let n_values = value_off.(n_nodes) in
        let value_of = Array.make n_values { Dfg.node = 0; out = 0 } in
        for id = 0 to n_nodes - 1 do
          for o = 0 to dfg.Dfg.nodes.(id).Dfg.n_out - 1 do
            value_of.(value_off.(id) + o) <- { Dfg.node = id; out = o }
          done
        done;
        let consumers_rev = Array.make n_values [] in
        Array.iteri
          (fun dst (node : Dfg.node) ->
            Array.iteri
              (fun port ({ Dfg.node = src; out } : Dfg.port) ->
                let v = value_off.(src) + out in
                consumers_rev.(v) <- (dst, port) :: consumers_rev.(v))
              node.Dfg.ins)
          dfg.Dfg.nodes;
        let consumers = Array.map (fun l -> Array.of_list (List.rev l)) consumers_rev in
        let topo_order = Dfg.topo_order dfg in
        let topo_pos = Array.make n_nodes 0 in
        Array.iteri (fun idx id -> topo_pos.(id) <- idx) topo_order;
        { p_dfg = dfg; n_nodes; n_values; value_off; value_of; topo_order; topo_pos; consumers })
end

let prepare = Prepared.build

(* Prepared contexts are cached by the graph's physical identity:
   module parts and the top-level graph each get one context for the
   lifetime of a synthesis run. Bounded so long-lived processes that
   churn through many graphs cannot grow without bound. *)

module Dfg_id = struct
  type t = Dfg.t

  let equal = ( == )
  let hash (g : Dfg.t) = Hashtbl.hash (g.Dfg.name, Array.length g.Dfg.nodes)
end

(* ------------------------------------------------------------------ *)
(* Job models.

   The event kernel stores needs/outs as flat arrays over value ids;
   the legacy kernel keeps its original list-of-ports representation
   so it stays byte-for-byte the reference implementation. *)

type ejob = {
  e_members : int array;  (* node ids executed by this job *)
  e_inst : int;
  e_busy : int;  (* cycles the instance is occupied *)
  e_pipelined : bool;
  e_needs : (int * int) array;  (* external input value id, need offset *)
  e_outs : (int * int) array;  (* output value id, ready offset *)
}

type job = {
  members : int list;
  inst : int;
  busy : int;
  pipelined : bool;
  needs : (Dfg.port * int) list;
  outs : (int * int * int) list;  (* node, out port, ready offset *)
}

(* Profiles are requested for every module job of every scheduling
   call, and computing one schedules the module's part recursively —
   memoize per (module identity, kernel, behavior, technology
   context). The kernel is part of the key so the legacy reference
   path never observes event-kernel-derived profiles. *)

type profile_key = {
  pk_rm : Design.rtl_module;
  pk_legacy : bool;
  pk_behavior : string;
  pk_vdd : Hsyn_modlib.Voltage.t;
  pk_clk_ns : float;
}

module Profile_key = struct
  type t = profile_key

  let equal a b =
    a.pk_rm == b.pk_rm && a.pk_legacy = b.pk_legacy && a.pk_behavior = b.pk_behavior
    && a.pk_vdd = b.pk_vdd && a.pk_clk_ns = b.pk_clk_ns

  let hash k =
    Hashtbl.hash (k.pk_rm.Design.rm_name, k.pk_legacy, k.pk_behavior, k.pk_vdd, k.pk_clk_ns)
end

module Prep_tbl = Shard_tbl.Make (Dfg_id)
module Prof_tbl = Shard_tbl.Make (Profile_key)

(* A cache value owns both memo tables the scheduler keeps: prepared
   contexts and module profiles. There is deliberately no global
   instance — callers that want sharing (the evaluation engine, via
   its session) pass one down; entry points called without a cache get
   a transient single-shard instance scoped to that call, so recursive
   profile computation is still memoized within the call but nothing
   outlives it. Both tables are shared across domains; [find_or_build]
   makes each key build exactly once even under concurrent lookups. *)

module Cache = struct
  type t = { prepared : Prepared.t Prep_tbl.t; profiles : (profile * schedule) Prof_tbl.t }

  type cache_stats = { prepared_tbl : Shard_tbl.stats; profile_tbl : Shard_tbl.stats }

  let create ?(shards = 8) ?(prepared_capacity = 256) ?(profile_capacity = 1024) () =
    {
      prepared =
        Prep_tbl.create ~shards ~eviction:Shard_tbl.Second_chance ~capacity:prepared_capacity ();
      profiles =
        Prof_tbl.create ~shards ~eviction:Shard_tbl.Second_chance ~capacity:profile_capacity ();
    }

  let stats t =
    { prepared_tbl = Prep_tbl.stats t.prepared; profile_tbl = Prof_tbl.stats t.profiles }

  let transient () = create ~shards:1 ~prepared_capacity:64 ~profile_capacity:256 ()
end

let or_transient = function Some c -> c | None -> Cache.transient ()

let prepared_in (cache : Cache.t) dfg =
  let built = ref false in
  let p =
    Prep_tbl.find_or_build cache.Cache.prepared dfg (fun dfg ->
        built := true;
        Prepared.build dfg)
  in
  if not !built then Atomic.incr c_prep_hits;
  p

let prepared_for ?cache dfg =
  match cache with Some c -> prepared_in c dfg | None -> Prepared.build dfg

let rec module_profile_impl cache use_legacy ctx rm behavior =
  let key =
    {
      pk_rm = rm;
      pk_legacy = use_legacy;
      pk_behavior = behavior;
      pk_vdd = ctx.Design.vdd;
      pk_clk_ns = ctx.Design.clk_ns;
    }
  in
  (* profiles are pure functions of the key, stored with the part
     schedule they are read from (the power model replays it); the
     builder recurses into this same cache for nested modules (always
     under different keys, the call graph is acyclic), which
     [find_or_build] permits because builders run outside the shard
     lock *)
  Prof_tbl.find_or_build cache.Cache.profiles key (fun _ ->
      compute_module_profile cache use_legacy ctx rm behavior)

and compute_module_profile cache use_legacy ctx rm behavior =
  let part = Design.module_part rm behavior in
  let dfg = part.Design.dfg in
  let cs = relaxed ~deadline:infinite_deadline dfg in
  let prep = prepared_in cache dfg in
  let sch =
    if use_legacy then schedule_legacy_rec cache ctx cs part
    else schedule_event cache prep ctx cs part
  in
  let in_need =
    Array.map
      (fun input_id ->
        (* first time the input's value is consumed *)
        let consumers = prep.Prepared.consumers.(prep.Prepared.value_off.(input_id)) in
        if Array.length consumers = 0 then 0
        else
          Array.fold_left
            (fun acc (dst, _port) ->
              let s = sch.start.(dst) in
              let s = if s < 0 then 0 else s in
              min acc s)
            max_int consumers)
      dfg.Dfg.inputs
  in
  let out_ready =
    Array.map
      (fun output_id ->
        let src = dfg.Dfg.nodes.(output_id).Dfg.ins.(0) in
        sch.avail.(Prepared.value_index prep src))
      dfg.Dfg.outputs
  in
  ({ in_need; out_ready; busy = sch.makespan }, sch)

(* ------------------------------------------------------------------ *)
(* Event kernel *)

and build_jobs_event cache (p : Prepared.t) ctx (d : Design.t) =
  let dfg = d.Design.dfg in
  let inst_nodes = Design.nodes_by_inst d in
  let jobs = ref [] in
  let add_job j = jobs := j :: !jobs in
  let external_needs members need_of =
    let in_members src = Array.exists (fun m -> m = src) members in
    let acc = ref [] in
    Array.iter
      (fun id ->
        Array.iteri
          (fun port ({ Dfg.node = src; _ } as pt : Dfg.port) ->
            if not (in_members src) then
              acc := (Prepared.value_index p pt, need_of id port) :: !acc)
          dfg.Dfg.nodes.(id).Dfg.ins)
      members;
    Array.of_list (List.rev !acc)
  in
  Array.iteri
    (fun i kind ->
      let nodes = inst_nodes.(i) in
      match kind, nodes with
      | _, [] -> ()
      | Design.Simple fu, nodes when Fu.is_chain fu ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          let members = Array.of_list nodes in
          add_job
            {
              e_members = members;
              e_inst = i;
              e_busy = latency;
              e_pipelined = fu.Fu.pipelined;
              e_needs = external_needs members (fun _ _ -> 0);
              e_outs = Array.map (fun id -> (p.Prepared.value_off.(id), latency)) members;
            }
      | Design.Simple fu, nodes ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          List.iter
            (fun id ->
              let members = [| id |] in
              add_job
                {
                  e_members = members;
                  e_inst = i;
                  e_busy = latency;
                  e_pipelined = fu.Fu.pipelined;
                  e_needs = external_needs members (fun _ _ -> 0);
                  e_outs = [| (p.Prepared.value_off.(id), latency) |];
                })
            nodes
      | Design.Module rm, nodes ->
          List.iter
            (fun id ->
              let behavior =
                match dfg.Dfg.nodes.(id).Dfg.kind with
                | Dfg.Call b -> b
                | _ -> invalid_arg "Sched: non-call node on module instance"
              in
              let prof, _ = module_profile_impl cache false ctx rm behavior in
              let members = [| id |] in
              add_job
                {
                  e_members = members;
                  e_inst = i;
                  e_busy = max 1 prof.busy;
                  e_pipelined = false;
                  e_needs = external_needs members (fun _ port -> prof.in_need.(port));
                  e_outs =
                    Array.init dfg.Dfg.nodes.(id).Dfg.n_out (fun j ->
                        (p.Prepared.value_off.(id) + j, prof.out_ready.(j)));
                })
            nodes)
    d.Design.insts;
  Array.of_list (List.rev !jobs)

and schedule_event cache (p : Prepared.t) ctx (cs : constraints) (d : Design.t) =
  let dfg = d.Design.dfg in
  let n_nodes = p.Prepared.n_nodes in
  let nv = p.Prepared.n_values in
  let jobs = build_jobs_event cache p ctx d in
  let n_jobs = Array.length jobs in
  let job_of_node = Array.make n_nodes (-1) in
  Array.iteri (fun j job -> Array.iter (fun id -> job_of_node.(id) <- j) job.e_members) jobs;
  (* sanity: every op/call node must belong to a job *)
  Array.iteri
    (fun id (node : Dfg.node) ->
      match node.Dfg.kind with
      | Dfg.Op _ | Dfg.Call _ ->
          if job_of_node.(id) < 0 then
            invalid_arg (Printf.sprintf "Sched: node %s is unbound" node.Dfg.label)
      | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> ())
    dfg.Dfg.nodes;
  let avail = Array.make nv (-1) in
  Array.iteri
    (fun pos input_id -> avail.(p.Prepared.value_off.(input_id)) <- cs.input_arrival.(pos))
    dfg.Dfg.inputs;
  Array.iteri
    (fun id (node : Dfg.node) ->
      match node.Dfg.kind with
      | Dfg.Const _ | Dfg.Delay _ -> avail.(p.Prepared.value_off.(id)) <- 0
      | Dfg.Input | Dfg.Output | Dfg.Op _ | Dfg.Call _ -> ())
    dfg.Dfg.nodes;
  (* priorities: longest path to sink over the job DAG *)
  let succs = Array.make n_jobs [] in
  let preds_remaining = Array.make n_jobs 0 in
  Array.iteri
    (fun j job ->
      Array.iter
        (fun (v, _) ->
          let pj = job_of_node.(p.Prepared.value_of.(v).Dfg.node) in
          if pj >= 0 && pj <> j then begin
            succs.(pj) <- j :: succs.(pj);
            preds_remaining.(j) <- preds_remaining.(j) + 1
          end)
        job.e_needs)
    jobs;
  (* Register serialization (the paper's "variables that need to be
     stored in the [same] register" ordering edges): if values v1 then
     v2 live in one register, v2 may only be written after v1's last
     read. Writing order follows the producers' topological positions.
     Constraints become anti-edges (pred job, gap): start ≥
     start(pred) + gap; constraints from input arrivals become static
     lower bounds in [base_est]. *)
  let base_est = Array.make n_jobs 0 in
  let anti_in = Array.make n_jobs [] in
  let add_anti ~pred ~job ~gap =
    if pred <> job then begin
      anti_in.(job) <- (pred, gap) :: anti_in.(job);
      succs.(pred) <- job :: succs.(pred);
      preds_remaining.(job) <- preds_remaining.(job) + 1
    end
  in
  let out_off_of j value =
    let outs = jobs.(j).e_outs in
    let n = Array.length outs in
    let rec find i =
      if i >= n then 0
      else
        let v, off = outs.(i) in
        if v = value then off else find (i + 1)
    in
    find 0
  in
  (* values per register, ascending (one sweep over value_reg) *)
  let reg_values = Array.make (max 1 d.Design.n_regs) [] in
  for v = Array.length d.Design.value_reg - 1 downto 0 do
    let r = d.Design.value_reg.(v) in
    if r >= 0 && r < d.Design.n_regs then reg_values.(r) <- v :: reg_values.(r)
  done;
  for r = 0 to d.Design.n_regs - 1 do
    let values =
      reg_values.(r)
      |> List.sort (fun a b ->
             let pa = p.Prepared.value_of.(a).Dfg.node in
             let pb = p.Prepared.value_of.(b).Dfg.node in
             compare (p.Prepared.topo_pos.(pa), a) (p.Prepared.topo_pos.(pb), b))
    in
    let rec pairs = function
      | v1 :: (v2 :: _ as rest) ->
          let writer2 = job_of_node.(p.Prepared.value_of.(v2).Dfg.node) in
          let off2 = if writer2 >= 0 then out_off_of writer2 v2 else 0 in
          if writer2 >= 0 then
            Array.iter
              (fun (dst, _port) ->
                match dfg.Dfg.nodes.(dst).Dfg.kind with
                | Dfg.Output | Dfg.Delay _ -> (
                    (* the consumer reads v1 at its availability *)
                    let j1 = job_of_node.(p.Prepared.value_of.(v1).Dfg.node) in
                    if j1 >= 0 then add_anti ~pred:j1 ~job:writer2 ~gap:(out_off_of j1 v1 + 1 - off2)
                    else
                      (* v1 is an input/const/delay value: its read
                         time equals its fixed availability *)
                      base_est.(writer2) <- max base_est.(writer2) (avail.(v1) + 1 - off2))
                | Dfg.Input | Dfg.Const _ | Dfg.Op _ | Dfg.Call _ ->
                    let j = job_of_node.(dst) in
                    if j >= 0 then begin
                      let need =
                        Array.fold_left
                          (fun found (q, n) -> if q = v1 && n > found then n else found)
                          0 jobs.(j).e_needs
                      in
                      add_anti ~pred:j ~job:writer2 ~gap:(need + 1 - off2)
                    end)
              p.Prepared.consumers.(v1);
          pairs rest
      | _ -> []
    in
    ignore (pairs values)
  done;
  let weight job = Array.fold_left (fun acc (_, off) -> max acc off) job.e_busy job.e_outs in
  let prio = Array.make n_jobs 0 in
  (* reverse topological order via Kahn on the reversed DAG *)
  let order =
    let indeg = Array.copy preds_remaining in
    let q = Queue.create () in
    Array.iteri (fun j c -> if c = 0 then Queue.add j q) indeg;
    let out = ref [] in
    while not (Queue.is_empty q) do
      let j = Queue.pop q in
      out := j :: !out;
      List.iter
        (fun s ->
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then Queue.add s q)
        succs.(j)
    done;
    !out (* reverse topological order *)
  in
  List.iter
    (fun j ->
      let best_succ = List.fold_left (fun acc s -> max acc prio.(s)) 0 succs.(j) in
      prio.(j) <- weight jobs.(j) + best_succ)
    order;
  (* event-driven list scheduling: instead of scanning all jobs at
     every cycle, keep (a) a ready queue of startable jobs keyed so the
     minimum pops the legacy winner — highest priority, lowest job
     index — (b) a pending heap of jobs whose earliest start time lies
     in the future, and (c) a release heap of instance free times.
     Jobs popped while their instance is busy park on the instance and
     re-enter the ready queue at its next release. *)
  let start_of_job = Array.make n_jobs (-1) in
  let est = Array.make n_jobs (-1) in
  let free_from = Array.make (Array.length d.Design.insts) 0 in
  let compute_est j =
    let data =
      Array.fold_left
        (fun acc (v, need) ->
          let a = avail.(v) in
          assert (a >= 0);
          max acc (a - need))
        base_est.(j) jobs.(j).e_needs
    in
    List.fold_left
      (fun acc (pred, gap) ->
        assert (start_of_job.(pred) >= 0);
        max acc (start_of_job.(pred) + gap))
      data anti_in.(j)
  in
  let unscheduled = ref n_jobs in
  let total_busy = Array.fold_left (fun acc job -> acc + job.e_busy) 0 jobs in
  let max_arrival = Array.fold_left max 0 cs.input_arrival in
  let max_base = Array.fold_left max 0 base_est in
  let bound = total_busy + max_arrival + max_base + (3 * n_jobs) + 4 in
  (* ready keys are injective — priority major, job index minor — so
     the heap's insertion-order tie-break never engages and the pop
     order exactly matches the legacy argmax scan *)
  let ready_key j = (-prio.(j) * n_jobs) + j in
  let ready = Pqueue.create () in
  let pending = Pqueue.create () in
  let releases = Pqueue.create () in
  let parked = Array.make (Array.length d.Design.insts) [] in
  let pops = ref 0 in
  Array.iteri
    (fun j c ->
      if c = 0 then begin
        let e = compute_est j in
        est.(j) <- e;
        Pqueue.add pending ~key:e j
      end)
    preds_remaining;
  let unpark i =
    let ps = parked.(i) in
    parked.(i) <- [];
    List.iter (fun q -> Pqueue.add ready ~key:(ready_key q) q) ps
  in
  let fire j t =
    let job = jobs.(j) in
    start_of_job.(j) <- t;
    decr unscheduled;
    let free = t + if job.e_pipelined then 1 else job.e_busy in
    free_from.(job.e_inst) <- free;
    Array.iter (fun (v, off) -> avail.(v) <- t + off) job.e_outs;
    List.iter
      (fun s ->
        preds_remaining.(s) <- preds_remaining.(s) - 1;
        if preds_remaining.(s) = 0 then begin
          let e = compute_est s in
          est.(s) <- e;
          if e <= t then Pqueue.add ready ~key:(ready_key s) s else Pqueue.add pending ~key:e s
        end)
      succs.(j);
    if free > t then Pqueue.add releases ~key:free job.e_inst
    else
      (* zero-occupancy fire: the instance is already free again this
         cycle, so parked jobs compete at the current time *)
      unpark job.e_inst
  in
  let deadlocked = ref false in
  while !unscheduled > 0 && not !deadlocked do
    let next =
      match Pqueue.peek pending, Pqueue.peek releases with
      | None, None -> None
      | Some (a, _), None -> Some a
      | None, Some (b, _) -> Some b
      | Some (a, _), Some (b, _) -> Some (min a b)
    in
    match next with
    | None -> deadlocked := true
    | Some t when t > bound -> deadlocked := true
    | Some t ->
        let continue_pending = ref true in
        while !continue_pending do
          match Pqueue.peek pending with
          | Some (e, _) when e <= t ->
              (match Pqueue.pop pending with
              | Some (_, j) ->
                  incr pops;
                  Pqueue.add ready ~key:(ready_key j) j
              | None -> ())
          | _ -> continue_pending := false
        done;
        let continue_releases = ref true in
        while !continue_releases do
          match Pqueue.peek releases with
          | Some (ft, _) when ft <= t ->
              (match Pqueue.pop releases with
              | Some (_, i) ->
                  incr pops;
                  unpark i
              | None -> ())
          | _ -> continue_releases := false
        done;
        let continue_ready = ref true in
        while !continue_ready do
          match Pqueue.pop ready with
          | None -> continue_ready := false
          | Some (_, j) ->
              incr pops;
              if free_from.(jobs.(j).e_inst) <= t then fire j t
              else parked.(jobs.(j).e_inst) <- j :: parked.(jobs.(j).e_inst)
        done
  done;
  Atomic.incr c_schedules;
  ignore (Atomic.fetch_and_add c_events !pops);
  if !unscheduled > 0 then
    (* ordering constraints (register serialization vs data order)
       deadlocked: the design point is simply not schedulable *)
    { start = Array.make n_nodes (-1); avail; makespan = bound; feasible = false }
  else begin
    let start = Array.make n_nodes (-1) in
    Array.iteri
      (fun j job -> Array.iter (fun id -> start.(id) <- start_of_job.(j)) job.e_members)
      jobs;
    let makespan = ref 0 in
    Array.iteri (fun j job -> makespan := max !makespan (start_of_job.(j) + weight job)) jobs;
    let consume_time id =
      let src = dfg.Dfg.nodes.(id).Dfg.ins.(0) in
      avail.(Prepared.value_index p src)
    in
    Array.iteri
      (fun id (node : Dfg.node) ->
        match node.Dfg.kind with
        | Dfg.Output | Dfg.Delay _ -> makespan := max !makespan (consume_time id)
        | Dfg.Input | Dfg.Const _ | Dfg.Op _ | Dfg.Call _ -> ())
      dfg.Dfg.nodes;
    let outputs_ok =
      match cs.output_deadline with
      | None -> true
      | Some deadlines ->
          Array.for_all2 (fun output_id dl -> consume_time output_id <= dl) dfg.Dfg.outputs deadlines
    in
    let feasible = !makespan <= cs.deadline && outputs_ok in
    { start; avail; makespan = !makespan; feasible }
  end

(* ------------------------------------------------------------------ *)
(* Legacy kernel — the original time-stepped implementation, kept
   verbatim as the reference for HSYN_SCHED=legacy differential
   testing. *)

and build_jobs_legacy cache ctx (d : Design.t) =
  let dfg = d.Design.dfg in
  let jobs = ref [] in
  let add_job j = jobs := j :: !jobs in
  let external_needs members need_of =
    let in_members src = List.mem src members in
    List.concat_map
      (fun id ->
        Array.to_list dfg.Dfg.nodes.(id).Dfg.ins
        |> List.mapi (fun port src -> (port, src))
        |> List.filter_map (fun (port, ({ Dfg.node = src; _ } as p)) ->
               if in_members src then None else Some (p, need_of id port)))
      members
  in
  Array.iteri
    (fun i kind ->
      let nodes = Design.nodes_on d i in
      match kind, nodes with
      | _, [] -> ()
      | Design.Simple fu, nodes when Fu.is_chain fu ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          add_job
            {
              members = nodes;
              inst = i;
              busy = latency;
              pipelined = fu.Fu.pipelined;
              needs = external_needs nodes (fun _ _ -> 0);
              outs = List.map (fun id -> (id, 0, latency)) nodes;
            }
      | Design.Simple fu, nodes ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          List.iter
            (fun id ->
              add_job
                {
                  members = [ id ];
                  inst = i;
                  busy = latency;
                  pipelined = fu.Fu.pipelined;
                  needs = external_needs [ id ] (fun _ _ -> 0);
                  outs = [ (id, 0, latency) ];
                })
            nodes
      | Design.Module rm, nodes ->
          List.iter
            (fun id ->
              let behavior =
                match dfg.Dfg.nodes.(id).Dfg.kind with
                | Dfg.Call b -> b
                | _ -> invalid_arg "Sched: non-call node on module instance"
              in
              let p, _ = module_profile_impl cache true ctx rm behavior in
              add_job
                {
                  members = [ id ];
                  inst = i;
                  busy = max 1 p.busy;
                  pipelined = false;
                  needs = external_needs [ id ] (fun _ port -> p.in_need.(port));
                  outs =
                    List.init dfg.Dfg.nodes.(id).Dfg.n_out (fun j -> (id, j, p.out_ready.(j)));
                })
            nodes)
    d.Design.insts;
  Array.of_list (List.rev !jobs)

and schedule_legacy_rec cache ctx (cs : constraints) (d : Design.t) =
  let dfg = d.Design.dfg in
  let n_nodes = Array.length dfg.Dfg.nodes in
  let nv = Design.n_values dfg in
  let jobs = build_jobs_legacy cache ctx d in
  let n_jobs = Array.length jobs in
  let job_of_node = Array.make n_nodes (-1) in
  Array.iteri (fun j job -> List.iter (fun id -> job_of_node.(id) <- j) job.members) jobs;
  (* sanity: every op/call node must belong to a job *)
  Array.iteri
    (fun id (node : Dfg.node) ->
      match node.Dfg.kind with
      | Dfg.Op _ | Dfg.Call _ ->
          if job_of_node.(id) < 0 then
            invalid_arg (Printf.sprintf "Sched: node %s is unbound" node.Dfg.label)
      | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> ())
    dfg.Dfg.nodes;
  let avail = Array.make nv (-1) in
  Array.iteri
    (fun pos input_id -> avail.(Design.value_index dfg { Dfg.node = input_id; out = 0 }) <- cs.input_arrival.(pos))
    dfg.Dfg.inputs;
  Array.iteri
    (fun id (node : Dfg.node) ->
      match node.Dfg.kind with
      | Dfg.Const _ | Dfg.Delay _ -> avail.(Design.value_index dfg { Dfg.node = id; out = 0 }) <- 0
      | Dfg.Input | Dfg.Output | Dfg.Op _ | Dfg.Call _ -> ())
    dfg.Dfg.nodes;
  (* priorities: longest path to sink over the job DAG *)
  let succs = Array.make n_jobs [] in
  let preds_remaining = Array.make n_jobs 0 in
  Array.iteri
    (fun j job ->
      List.iter
        (fun (({ Dfg.node = src; _ } : Dfg.port), _) ->
          let pj = job_of_node.(src) in
          if pj >= 0 && pj <> j then begin
            succs.(pj) <- j :: succs.(pj);
            preds_remaining.(j) <- preds_remaining.(j) + 1
          end)
        job.needs)
    jobs;
  let base_est = Array.make n_jobs 0 in
  let anti_in = Array.make n_jobs [] in
  let add_anti ~pred ~job ~gap =
    if pred <> job then begin
      anti_in.(job) <- (pred, gap) :: anti_in.(job);
      succs.(pred) <- job :: succs.(pred);
      preds_remaining.(job) <- preds_remaining.(job) + 1
    end
  in
  let topo_pos =
    let order = Dfg.topo_order dfg in
    let pos = Array.make n_nodes 0 in
    Array.iteri (fun idx id -> pos.(id) <- idx) order;
    pos
  in
  let out_off_of j value =
    let ({ Dfg.node; out } : Dfg.port) = Design.value_of_index dfg value in
    let rec find = function
      | [] -> 0
      | (n, o, off) :: rest -> if n = node && o = out then off else find rest
    in
    find jobs.(j).outs
  in
  (* read times of a value, as (job reader, need offset) or a constant
     cycle for output/delay consumers (their read = availability) *)
  let readers_of value =
    let p = Design.value_of_index dfg value in
    let acc = ref [] in
    Array.iteri
      (fun dst (node : Dfg.node) ->
        Array.iteri
          (fun port src ->
            if src = p then
              match node.Dfg.kind with
              | Dfg.Output | Dfg.Delay _ -> acc := `At_avail :: !acc
              | _ ->
                  let j = job_of_node.(dst) in
                  if j >= 0 then begin
                    let need =
                      List.fold_left
                        (fun found (q, n) -> if q = p && n > found then n else found)
                        0 jobs.(j).needs
                    in
                    ignore port;
                    acc := `Reader (j, need) :: !acc
                  end)
          node.Dfg.ins)
      dfg.Dfg.nodes;
    !acc
  in
  for r = 0 to d.Design.n_regs - 1 do
    let values =
      Design.values_in_reg d r
      |> List.sort (fun a b ->
             let pa = (Design.value_of_index dfg a).Dfg.node in
             let pb = (Design.value_of_index dfg b).Dfg.node in
             compare (topo_pos.(pa), a) (topo_pos.(pb), b))
    in
    let rec pairs = function
      | v1 :: (v2 :: _ as rest) ->
          let writer2 =
            let ({ Dfg.node; _ } : Dfg.port) = Design.value_of_index dfg v2 in
            job_of_node.(node)
          in
          let off2 = if writer2 >= 0 then out_off_of writer2 v2 else 0 in
          if writer2 >= 0 then
            List.iter
              (fun reader ->
                match reader with
                | `Reader (j, need) -> add_anti ~pred:j ~job:writer2 ~gap:(need + 1 - off2)
                | `At_avail -> (
                    let ({ Dfg.node = p1; _ } : Dfg.port) = Design.value_of_index dfg v1 in
                    let j1 = job_of_node.(p1) in
                    if j1 >= 0 then
                      add_anti ~pred:j1 ~job:writer2 ~gap:(out_off_of j1 v1 + 1 - off2)
                    else
                      base_est.(writer2) <-
                        max base_est.(writer2) (avail.(v1) + 1 - off2)))
              (readers_of v1)
          else ();
          pairs rest
      | _ -> []
    in
    ignore (pairs values)
  done;
  let weight job = List.fold_left (fun acc (_, _, off) -> max acc off) job.busy job.outs in
  let prio = Array.make n_jobs 0 in
  let order =
    let indeg = Array.copy preds_remaining in
    let q = Queue.create () in
    Array.iteri (fun j c -> if c = 0 then Queue.add j q) indeg;
    let out = ref [] in
    while not (Queue.is_empty q) do
      let j = Queue.pop q in
      out := j :: !out;
      List.iter
        (fun s ->
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then Queue.add s q)
        succs.(j)
    done;
    !out
  in
  List.iter
    (fun j ->
      let best_succ = List.fold_left (fun acc s -> max acc prio.(s)) 0 succs.(j) in
      prio.(j) <- weight jobs.(j) + best_succ)
    order;
  (* list scheduling, time stepped *)
  let start_of_job = Array.make n_jobs (-1) in
  let est = Array.make n_jobs (-1) in
  let free_from = Array.make (Array.length d.Design.insts) 0 in
  let compute_est j =
    let data =
      List.fold_left
        (fun acc (p, need) ->
          let a = avail.(Design.value_index dfg p) in
          assert (a >= 0);
          max acc (a - need))
        base_est.(j) jobs.(j).needs
    in
    List.fold_left
      (fun acc (pred, gap) ->
        assert (start_of_job.(pred) >= 0);
        max acc (start_of_job.(pred) + gap))
      data anti_in.(j)
  in
  Array.iteri (fun j c -> if c = 0 then est.(j) <- compute_est j) preds_remaining;
  let unscheduled = ref n_jobs in
  let total_busy = Array.fold_left (fun acc job -> acc + job.busy) 0 jobs in
  let max_arrival = Array.fold_left max 0 cs.input_arrival in
  let max_base = Array.fold_left max 0 base_est in
  let bound = total_busy + max_arrival + max_base + (3 * n_jobs) + 4 in
  let t = ref 0 in
  while !unscheduled > 0 && !t <= bound do
    let rec fire () =
      let best = ref (-1) in
      for j = 0 to n_jobs - 1 do
        if start_of_job.(j) < 0 && est.(j) >= 0 && est.(j) <= !t && free_from.(jobs.(j).inst) <= !t
        then if !best < 0 || prio.(j) > prio.(!best) then best := j
      done;
      if !best >= 0 then begin
        let j = !best in
        let job = jobs.(j) in
        start_of_job.(j) <- !t;
        decr unscheduled;
        free_from.(job.inst) <- !t + (if job.pipelined then 1 else job.busy);
        List.iter
          (fun (node, out, off) -> avail.(Design.value_index dfg { Dfg.node; out }) <- !t + off)
          job.outs;
        List.iter
          (fun s ->
            preds_remaining.(s) <- preds_remaining.(s) - 1;
            if preds_remaining.(s) = 0 then est.(s) <- compute_est s)
          succs.(j);
        fire ()
      end
    in
    fire ();
    incr t
  done;
  Atomic.incr c_schedules;
  Atomic.incr c_legacy;
  if !unscheduled > 0 then
    { start = Array.make n_nodes (-1); avail; makespan = bound; feasible = false }
  else begin
    let start = Array.make n_nodes (-1) in
    Array.iteri (fun j job -> List.iter (fun id -> start.(id) <- start_of_job.(j)) job.members) jobs;
    let makespan = ref 0 in
    Array.iteri
      (fun j job ->
        makespan := max !makespan (start_of_job.(j) + weight job))
      jobs;
    let consume_time id =
      let src = dfg.Dfg.nodes.(id).Dfg.ins.(0) in
      avail.(Design.value_index dfg src)
    in
    Array.iteri
      (fun id (node : Dfg.node) ->
        match node.Dfg.kind with
        | Dfg.Output | Dfg.Delay _ -> makespan := max !makespan (consume_time id)
        | Dfg.Input | Dfg.Const _ | Dfg.Op _ | Dfg.Call _ -> ())
      dfg.Dfg.nodes;
    let outputs_ok =
      match cs.output_deadline with
      | None -> true
      | Some deadlines ->
          Array.for_all2 (fun output_id dl -> consume_time output_id <= dl) dfg.Dfg.outputs deadlines
    in
    let feasible = !makespan <= cs.deadline && outputs_ok in
    { start; avail; makespan = !makespan; feasible }
  end

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let module_profile ?cache ctx rm behavior =
  fst (module_profile_impl (or_transient cache) (Atomic.get impl_ref = Legacy) ctx rm behavior)

let module_schedule ?cache ctx rm behavior =
  snd (module_profile_impl (or_transient cache) (Atomic.get impl_ref = Legacy) ctx rm behavior)

let schedule_legacy ?cache ctx (cs : constraints) (d : Design.t) =
  schedule_legacy_rec (or_transient cache) ctx cs d

let schedule ?cache ?prepared ctx (cs : constraints) (d : Design.t) =
  Span.span Span.Schedule "schedule" (fun () ->
      match Atomic.get impl_ref with
      | Legacy -> schedule_legacy_rec (or_transient cache) ctx cs d
      | Event ->
          let cache = or_transient cache in
          let p =
            match prepared with
            | Some p when Prepared.dfg p == d.Design.dfg -> p
            | _ -> prepared_in cache d.Design.dfg
          in
          schedule_event cache p ctx cs d)

(* ------------------------------------------------------------------ *)
(* ALAP (infinite resources) *)

let alap_start ?cache ctx ~deadline (d : Design.t) =
  let cache = or_transient cache in
  let dfg = d.Design.dfg in
  let p = prepared_in cache dfg in
  let n_nodes = p.Prepared.n_nodes in
  let jobs = build_jobs_event cache p ctx d in
  let n_jobs = Array.length jobs in
  let job_of_node = Array.make n_nodes (-1) in
  Array.iteri (fun j job -> Array.iter (fun id -> job_of_node.(id) <- j) job.e_members) jobs;
  let nv = p.Prepared.n_values in
  (* latest time each value may become available *)
  let latest_avail = Array.make nv deadline in
  let job_latest = Array.make n_jobs deadline in
  (* consumer constraints, processed in reverse topological node order *)
  let order = p.Prepared.topo_order in
  let tighten_value v t = if t < latest_avail.(v) then latest_avail.(v) <- t in
  Array.iter
    (fun id ->
      let node = dfg.Dfg.nodes.(id) in
      match node.Dfg.kind with
      | Dfg.Output | Dfg.Delay _ -> tighten_value (Prepared.value_index p node.Dfg.ins.(0)) deadline
      | Dfg.Input | Dfg.Const _ | Dfg.Op _ | Dfg.Call _ -> ())
    order;
  (* walk jobs in reverse dependence order: node topo order reversed *)
  for idx = Array.length order - 1 downto 0 do
    let id = order.(idx) in
    let j = job_of_node.(id) in
    if j >= 0 then begin
      let job = jobs.(j) in
      let latest =
        Array.fold_left (fun acc (v, off) -> min acc (latest_avail.(v) - off)) deadline job.e_outs
      in
      if latest < job_latest.(j) then job_latest.(j) <- latest;
      Array.iter (fun (v, need) -> tighten_value v (job_latest.(j) + need)) job.e_needs
    end
  done;
  let result = Array.make n_nodes (-1) in
  Array.iteri
    (fun j job -> Array.iter (fun id -> result.(id) <- max 0 job_latest.(j)) job.e_members)
    jobs;
  result

(* ------------------------------------------------------------------ *)
(* Minimum sampling period *)

let critical_path_ns lib (dfg : Dfg.t) =
  if Dfg.n_calls dfg > 0 then invalid_arg "Sched.critical_path_ns: graph must be flat";
  let order = Dfg.topo_order dfg in
  let n = Array.length dfg.Dfg.nodes in
  let finish = Array.make n 0. in
  let longest = ref 0. in
  Array.iter
    (fun id ->
      let node = dfg.Dfg.nodes.(id) in
      let in_ready =
        Array.fold_left
          (fun acc ({ Dfg.node = src; _ } : Dfg.port) ->
            match dfg.Dfg.nodes.(src).Dfg.kind with
            | Dfg.Delay _ -> acc (* previous-sample value, ready at 0 *)
            | _ -> Float.max acc finish.(src))
          0. node.Dfg.ins
      in
      let d =
        match node.Dfg.kind with
        | Dfg.Op op -> Hsyn_modlib.Library.min_op_delay_ns lib op
        | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> 0.
        | Dfg.Call _ -> assert false
      in
      finish.(id) <- in_ready +. d;
      longest := Float.max !longest finish.(id))
    order;
  Float.max !longest 1.0

(* ------------------------------------------------------------------ *)
(* Printing *)

let pp_schedule fmt ((d : Design.t), sch) =
  let dfg = d.Design.dfg in
  Format.fprintf fmt "@[<v>schedule for %s (makespan %d%s):@," dfg.Dfg.name sch.makespan
    (if sch.feasible then "" else ", INFEASIBLE");
  for t = 0 to sch.makespan do
    let here =
      Array.to_list dfg.Dfg.nodes
      |> List.mapi (fun id node -> (id, node))
      |> List.filter (fun (id, _) -> sch.start.(id) = t)
      |> List.map (fun (id, (node : Dfg.node)) ->
             Printf.sprintf "%s@I%d" node.Dfg.label d.Design.node_inst.(id))
    in
    if here <> [] then Format.fprintf fmt "  cycle %2d: %s@," t (String.concat " " here)
  done;
  Format.fprintf fmt "@]"
