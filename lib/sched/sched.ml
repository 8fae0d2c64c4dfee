module Dfg = Hsyn_dfg.Dfg
module Design = Hsyn_rtl.Design
module Fu = Hsyn_modlib.Fu
module Int_heap = Hsyn_util.Int_heap
module Shard_tbl = Hsyn_util.Shard_tbl
module Span = Hsyn_obs.Trace
module Metrics = Hsyn_obs.Metrics

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

(* the gap of a data edge, which constrains through [avail] instead *)
let no_gap = min_int

(* the low bits that hold a heap payload in 0 .. n - 1 *)
let payload_bits n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

(* a constant, kept only for bench/perf/perf.ml; see sched.mli *)
type impl = Event | Legacy

let impl () = Event

(* ------------------------------------------------------------------ *)
(* Kernel counters: registry handles, made once; disarmed, a write is
   one atomic load *)

type stats = {
  schedules : int;
  events_popped : int;
  prepared_hits : int;
  prepared_builds : int;
}

let c_schedules = Metrics.counter "sched.schedules"
let c_events = Metrics.counter "sched.events_popped"
let schedule_probe = Span.probe Span.Schedule "schedule"

(* the two prepared fields stay 0; see sched.mli *)
let stats () =
  {
    schedules = Metrics.counter_value c_schedules;
    events_popped = Metrics.counter_value c_events;
    prepared_hits = 0;
    prepared_builds = 0;
  }

let zero_stats = { schedules = 0; events_popped = 0; prepared_hits = 0; prepared_builds = 0 }

let sub_stats a b =
  {
    zero_stats with
    schedules = a.schedules - b.schedules;
    events_popped = a.events_popped - b.events_popped;
  }

(* ------------------------------------------------------------------ *)
(* Job model.

   The kernel keeps its jobs as a structure of arrays: one entry per
   job, and CSR slices for members, needs and outputs. Jobs are
   numbered by instance, then by member node, and the number breaks
   ready-queue ties, so that order is part of the kernel's contract. *)

type jobs = {
  n_jobs : int;
  job_of_node : int array;  (* per node, its job or -1 *)
  j_inst : int array;
  j_busy : int array;  (* cycles the instance is occupied *)
  j_pipelined : bool array;
  j_weight : int array;  (* max of busy and the output offsets *)
  mem_off : int array;  (* n_jobs + 1: each job's slice of [mem] *)
  mem : int array;  (* member node ids *)
  need_off : int array;  (* n_jobs + 1: each job's slice of [need_val]/[need_at] *)
  need_val : int array;  (* external input value id *)
  need_at : int array;  (* cycle it is needed, relative to the job's start *)
  out_off : int array;  (* n_jobs + 1: each job's slice of [out_val]/[out_at] *)
  out_val : int array;  (* output value id *)
  out_at : int array;  (* cycle it is ready, relative to the job's start *)
}

(* Profiles are requested for every module job of every scheduling
   call, and computing one schedules the module's part recursively —
   memoize per (module identity, behavior, technology context). *)

type profile_key = {
  pk_rm : Design.rtl_module;
  pk_behavior : string;
  pk_vdd : Hsyn_modlib.Voltage.t;
  pk_clk_ns : float;
}

module Profile_key = struct
  type t = profile_key

  let equal a b =
    a.pk_rm == b.pk_rm && a.pk_behavior = b.pk_behavior && a.pk_vdd = b.pk_vdd
    && a.pk_clk_ns = b.pk_clk_ns

  let hash k = Hashtbl.hash (k.pk_rm.Design.rm_name, k.pk_behavior, k.pk_vdd, k.pk_clk_ns)
end

module Prof_tbl = Shard_tbl.Make (Profile_key)

(* The one memo table the scheduler keeps, of module profiles. There is
   deliberately no global instance — callers that want sharing (the
   evaluation engine, via its session) pass one down; entry points
   called without a cache make a fresh one scoped to that call, so
   recursive profile computation is still memoized within the call but
   nothing outlives it. The table is shared across domains;
   [find_or_build] makes each key build exactly once even under
   concurrent lookups. *)

module Cache = struct
  type t = (profile * schedule) Prof_tbl.t

  let create () : t = Prof_tbl.create ~capacity:1024 ()
  let stats = Prof_tbl.stats
end

let rec module_profile_impl cache ctx rm behavior =
  let key =
    {
      pk_rm = rm;
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
  Prof_tbl.find_or_build cache key (fun _ ->
      compute_module_profile cache ctx rm behavior)

and compute_module_profile cache ctx rm behavior =
  let part = Design.module_part rm behavior in
  let dfg = part.Design.dfg in
  let cs = relaxed ~deadline:infinite_deadline dfg in
  let sch = schedule_event cache ctx cs part in
  let ix = dfg.Dfg.index in
  let in_need =
    Array.map
      (fun input_id ->
        (* first time the input's value is consumed *)
        let v = ix.Dfg.value_off.(input_id) in
        let lo = ix.Dfg.reader_off.(v) and hi = ix.Dfg.reader_off.(v + 1) in
        if lo = hi then 0
        else begin
          let first = ref max_int in
          for c = lo to hi - 1 do
            first := min !first (max 0 sch.start.(ix.Dfg.readers.(c)))
          done;
          !first
        end)
      dfg.Dfg.inputs
  in
  let out_ready = Array.map (fun v -> sch.avail.(v)) ix.Dfg.output_values in
  ({ in_need; out_ready; busy = sch.makespan }, sch)

(* ------------------------------------------------------------------ *)
(* Event kernel *)

(* The jobs of a design, numbered by instance, then by member node: a
   chained unit runs all its nodes as one job, any other instance one
   job per node. Module profiles, which schedule their parts
   recursively, are looked up here, in instance order. *)
and build_jobs cache ctx (d : Design.t) =
  let dfg = d.Design.dfg in
  let ix = dfg.Dfg.index in
  let insts = d.Design.insts in
  let n_insts = Array.length insts in
  let node_inst = d.Design.node_inst in
  (* bucket the bound nodes by instance, ascending: a counting sort,
     like the one that lays out the graph's reader slices *)
  let bucket = Array.make (n_insts + 1) 0 in
  Array.iter (fun i -> if i >= 0 && i < n_insts then bucket.(i) <- bucket.(i) + 1) node_inst;
  for i = 1 to n_insts do
    bucket.(i) <- bucket.(i) + bucket.(i - 1)
  done;
  let mem = Array.make bucket.(n_insts) 0 in
  for id = Array.length node_inst - 1 downto 0 do
    let i = node_inst.(id) in
    if i >= 0 && i < n_insts then begin
      bucket.(i) <- bucket.(i) - 1;
      mem.(bucket.(i)) <- id
    end
  done;
  (* sizes: jobs, need slots (at most one per input port of a member)
     and output slots *)
  let n_jobs = ref 0 and n_needs = ref 0 and n_outs = ref 0 in
  for i = 0 to n_insts - 1 do
    let lo = bucket.(i) and hi = bucket.(i + 1) in
    if hi > lo then
      let is_module =
        match insts.(i) with
        | Design.Simple fu when Fu.is_chain fu ->
            incr n_jobs;
            false
        | Design.Simple _ ->
            n_jobs := !n_jobs + (hi - lo);
            false
        | Design.Module _ ->
            n_jobs := !n_jobs + (hi - lo);
            true
      in
      for k = lo to hi - 1 do
        let id = mem.(k) in
        n_needs := !n_needs + ix.Dfg.in_off.(id + 1) - ix.Dfg.in_off.(id);
        let outs = ix.Dfg.value_off.(id + 1) - ix.Dfg.value_off.(id) in
        n_outs := !n_outs + if is_module then outs else 1
      done
  done;
  let n_jobs = !n_jobs in
  let jb =
    {
      n_jobs;
      job_of_node = Array.make (Array.length dfg.Dfg.nodes) (-1);
      j_inst = Array.make n_jobs 0;
      j_busy = Array.make n_jobs 0;
      j_pipelined = Array.make n_jobs false;
      j_weight = Array.make n_jobs 0;
      mem_off = Array.make (n_jobs + 1) (Array.length mem);
      mem;
      need_off = Array.make (n_jobs + 1) 0;
      need_val = Array.make !n_needs 0;
      need_at = Array.make !n_needs 0;
      out_off = Array.make (n_jobs + 1) 0;
      out_val = Array.make !n_outs 0;
      out_at = Array.make !n_outs 0;
    }
  in
  let next_job = ref 0 and next_need = ref 0 and next_out = ref 0 in
  (* open the next job, on instance [i], with its members from [mem.(lo)] *)
  let open_job i ~busy ~pipelined lo =
    let j = !next_job in
    incr next_job;
    jb.j_inst.(j) <- i;
    jb.j_busy.(j) <- busy;
    jb.j_pipelined.(j) <- pipelined;
    jb.mem_off.(j) <- lo;
    jb.need_off.(j) <- !next_need;
    jb.out_off.(j) <- !next_out;
    j
  in
  (* the inputs of member [id] that no member of the job produces: on a
     chain unit the members are the nodes bound to instance [chain],
     otherwise ([chain] = -1) [id] alone. [in_need] gives each port's
     need offset; empty means all 0. *)
  let add_needs ~chain id in_need =
    let base = ix.Dfg.in_off.(id) in
    for s = base to ix.Dfg.in_off.(id + 1) - 1 do
      let v = ix.Dfg.in_val.(s) in
      let src = ix.Dfg.value_node.(v) in
      if not (if chain >= 0 then node_inst.(src) = chain else src = id) then begin
        jb.need_val.(!next_need) <- v;
        jb.need_at.(!next_need) <- (if Array.length in_need = 0 then 0 else in_need.(s - base));
        incr next_need
      end
    done
  in
  let add_out v at =
    jb.out_val.(!next_out) <- v;
    jb.out_at.(!next_out) <- at;
    incr next_out
  in
  for i = 0 to n_insts - 1 do
    let lo = bucket.(i) and hi = bucket.(i + 1) in
    if hi > lo then
      match insts.(i) with
      | Design.Simple fu when Fu.is_chain fu ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          let j = open_job i ~busy:latency ~pipelined:fu.Fu.pipelined lo in
          for k = lo to hi - 1 do
            jb.job_of_node.(mem.(k)) <- j;
            add_needs ~chain:i mem.(k) [||]
          done;
          for k = lo to hi - 1 do
            add_out ix.Dfg.value_off.(mem.(k)) latency
          done
      | Design.Simple fu ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          for k = lo to hi - 1 do
            let id = mem.(k) in
            let j = open_job i ~busy:latency ~pipelined:fu.Fu.pipelined k in
            jb.job_of_node.(id) <- j;
            add_needs ~chain:(-1) id [||];
            add_out ix.Dfg.value_off.(id) latency
          done
      | Design.Module rm ->
          for k = lo to hi - 1 do
            let id = mem.(k) in
            let behavior =
              match dfg.Dfg.nodes.(id).Dfg.kind with
              | Dfg.Call b -> b
              | _ -> invalid_arg "Sched: non-call node on module instance"
            in
            let prof, _ = module_profile_impl cache ctx rm behavior in
            let j = open_job i ~busy:(max 1 prof.busy) ~pipelined:false k in
            jb.job_of_node.(id) <- j;
            add_needs ~chain:(-1) id prof.in_need;
            for v = ix.Dfg.value_off.(id) to ix.Dfg.value_off.(id + 1) - 1 do
              add_out v prof.out_ready.(v - ix.Dfg.value_off.(id))
            done
          done
  done;
  jb.need_off.(n_jobs) <- !next_need;
  jb.out_off.(n_jobs) <- !next_out;
  for j = 0 to n_jobs - 1 do
    let w = ref jb.j_busy.(j) in
    for k = jb.out_off.(j) to jb.out_off.(j + 1) - 1 do
      w := max !w jb.out_at.(k)
    done;
    jb.j_weight.(j) <- !w
  done;
  jb

and schedule_event cache ctx (cs : constraints) (d : Design.t) =
  let dfg = d.Design.dfg in
  let ix = dfg.Dfg.index in
  let jb = build_jobs cache ctx d in
  let n_jobs = jb.n_jobs and job_of_node = jb.job_of_node in
  let n_insts = Array.length d.Design.insts in
  (* sanity: every op/call node must belong to a job *)
  Array.iter
    (fun id ->
      if job_of_node.(id) < 0 then
        invalid_arg (Printf.sprintf "Sched: node %s is unbound" dfg.Dfg.nodes.(id).Dfg.label))
    ix.Dfg.exec_nodes;
  let avail = Array.make (Array.length ix.Dfg.value_node) (-1) in
  Array.iteri
    (fun pos input_id -> avail.(ix.Dfg.value_off.(input_id)) <- cs.input_arrival.(pos))
    dfg.Dfg.inputs;
  Array.iter (fun v -> avail.(v) <- 0) ix.Dfg.fixed_values;
  (* The job DAG as an edge list, then as successor slices. A data
     edge runs from the producer of each need (its timing is read off
     [avail]); a register anti-edge carries a gap: start ≥ start(pred)
     + gap. Parallel edges stay, one per need or reader, because each
     is one count in [preds_remaining]. *)
  let cap = jb.need_off.(n_jobs) + Array.length ix.Dfg.readers in
  let e_src = Array.make cap 0 and e_dst = Array.make cap 0 and e_gap = Array.make cap 0 in
  let n_edges = ref 0 in
  let preds_remaining = Array.make n_jobs 0 in
  let add_edge src dst gap =
    e_src.(!n_edges) <- src;
    e_dst.(!n_edges) <- dst;
    e_gap.(!n_edges) <- gap;
    incr n_edges;
    preds_remaining.(dst) <- preds_remaining.(dst) + 1
  in
  for j = 0 to n_jobs - 1 do
    for k = jb.need_off.(j) to jb.need_off.(j + 1) - 1 do
      let pj = job_of_node.(ix.Dfg.value_node.(jb.need_val.(k))) in
      if pj >= 0 && pj <> j then add_edge pj j no_gap
    done
  done;
  (* Register serialization (the paper's "variables that need to be
     stored in the [same] register" ordering edges): if values v1 then
     v2 live in one register, v2 may only be written after v1's last
     read. Writing order follows the producers' topological positions,
     so walking [topo_values] meets each register's values in order.
     Constraints from input arrivals become static lower bounds in
     [lower]; the event loop later raises [lower] by each anti-edge as
     its predecessor fires. *)
  let lower = Array.make n_jobs 0 in
  (* when job [j] makes [v] ready, relative to its start; 0 if it does
     not make it *)
  let ready_offset j v =
    let rec find k =
      if k >= jb.out_off.(j + 1) then 0
      else if jb.out_val.(k) = v then jb.out_at.(k)
      else find (k + 1)
    in
    find jb.out_off.(j)
  in
  let need_of j v =
    let need = ref 0 in
    for k = jb.need_off.(j) to jb.need_off.(j + 1) - 1 do
      if jb.need_val.(k) = v && jb.need_at.(k) > !need then need := jb.need_at.(k)
    done;
    !need
  in
  let add_anti ~pred ~job ~gap = if pred <> job then add_edge pred job gap in
  let value_reg = d.Design.value_reg and n_regs = d.Design.n_regs in
  let last_in_reg = Array.make (max 0 n_regs) (-1) in
  Array.iter
    (fun v2 ->
      let r = if v2 < Array.length value_reg then value_reg.(v2) else -1 in
      if r >= 0 && r < n_regs then begin
        let v1 = last_in_reg.(r) in
        last_in_reg.(r) <- v2;
        let writer2 = job_of_node.(ix.Dfg.value_node.(v2)) in
        if v1 >= 0 && writer2 >= 0 then begin
          let off2 = ready_offset writer2 v2 in
          for c = ix.Dfg.reader_off.(v1) to ix.Dfg.reader_off.(v1 + 1) - 1 do
            if ix.Dfg.reader_at_avail.(c) then begin
              (* an Output or Delay reads v1 at its availability *)
              let j1 = job_of_node.(ix.Dfg.value_node.(v1)) in
              if j1 >= 0 then add_anti ~pred:j1 ~job:writer2 ~gap:(ready_offset j1 v1 + 1 - off2)
              else
                (* v1 is an input/const/delay value: its read time
                   equals its fixed availability *)
                lower.(writer2) <- max lower.(writer2) (avail.(v1) + 1 - off2)
            end
            else
              let j = job_of_node.(ix.Dfg.readers.(c)) in
              if j >= 0 then add_anti ~pred:j ~job:writer2 ~gap:(need_of j v1 + 1 - off2)
          done
        end
      end)
    ix.Dfg.topo_values;
  let n_edges = !n_edges in
  let succ_off = Array.make (n_jobs + 1) 0 in
  for e = 0 to n_edges - 1 do
    succ_off.(e_src.(e)) <- succ_off.(e_src.(e)) + 1
  done;
  for j = 1 to n_jobs do
    succ_off.(j) <- succ_off.(j) + succ_off.(j - 1)
  done;
  let succ = Array.make n_edges 0 and succ_gap = Array.make n_edges 0 in
  for e = n_edges - 1 downto 0 do
    let c = succ_off.(e_src.(e)) - 1 in
    succ_off.(e_src.(e)) <- c;
    succ.(c) <- e_dst.(e);
    succ_gap.(c) <- e_gap.(e)
  done;
  (* priorities: longest path to sink over the job DAG, in the reverse
     of Kahn's order; jobs on a cycle (a register deadlock) are never
     reached and keep 0 *)
  let prio = Array.make n_jobs 0 in
  let order = Array.make n_jobs 0 in
  let indeg = Array.copy preds_remaining in
  let n_ordered = ref 0 in
  for j = 0 to n_jobs - 1 do
    if indeg.(j) = 0 then begin
      order.(!n_ordered) <- j;
      incr n_ordered
    end
  done;
  let head = ref 0 in
  while !head < !n_ordered do
    let j = order.(!head) in
    incr head;
    for k = succ_off.(j) to succ_off.(j + 1) - 1 do
      let s = succ.(k) in
      indeg.(s) <- indeg.(s) - 1;
      if indeg.(s) = 0 then begin
        order.(!n_ordered) <- s;
        incr n_ordered
      end
    done
  done;
  for idx = !n_ordered - 1 downto 0 do
    let j = order.(idx) in
    let best_succ = ref 0 in
    for k = succ_off.(j) to succ_off.(j + 1) - 1 do
      best_succ := max !best_succ prio.(succ.(k))
    done;
    prio.(j) <- jb.j_weight.(j) + !best_succ
  done;
  (* event-driven list scheduling: instead of scanning all jobs at
     every cycle, keep (a) a ready heap of startable jobs keyed so the
     minimum pops the list scheduler's choice — highest priority,
     lowest job index — (b) a pending heap of jobs whose earliest start
     time lies in the future, and (c) a release heap of instance free
     times. Jobs popped while their instance is busy park on the
     instance and re-enter the ready heap at its next release. Each
     heap entry packs its key and payload into one int, [key lsl bits
     lor payload]. Ready keys are injective, so the pop order exactly
     matches the argmax scan of the time-stepped reference kernel
     (Hsyn_fuzz.Sched_ref); pending and release entries may tie in any
     order, because every entry due at time t moves to the ready heap
     before the first ready pop at t. *)
  let start_of_job = Array.make n_jobs (-1) in
  let free_from = Array.make n_insts 0 in
  let compute_est j =
    let est = ref lower.(j) in
    for k = jb.need_off.(j) to jb.need_off.(j + 1) - 1 do
      let a = avail.(jb.need_val.(k)) in
      assert (a >= 0);
      est := max !est (a - jb.need_at.(k))
    done;
    !est
  in
  let unscheduled = ref n_jobs in
  let total_busy = Array.fold_left ( + ) 0 jb.j_busy in
  let max_arrival = Array.fold_left max 0 cs.input_arrival in
  let max_base = Array.fold_left max 0 lower in
  let bound = total_busy + max_arrival + max_base + (3 * n_jobs) + 4 in
  let max_prio = Array.fold_left max 0 prio in
  let ready = Int_heap.create n_jobs in
  let pending = Int_heap.create n_jobs in
  let releases = Int_heap.create n_jobs in
  let job_bits = payload_bits n_jobs and inst_bits = payload_bits n_insts in
  let job_mask = (1 lsl job_bits) - 1 and inst_mask = (1 lsl inst_bits) - 1 in
  let push_ready j = Int_heap.push ready (((max_prio - prio.(j)) lsl job_bits) lor j) in
  (* estimates are never negative: [lower] starts at 0 *)
  let push_pending j est = Int_heap.push pending ((est lsl job_bits) lor j) in
  (* parked jobs: a list per instance, threaded through [parked_next] *)
  let parked = Array.make n_insts (-1) and parked_next = Array.make n_jobs (-1) in
  let pops = ref 0 in
  for j = 0 to n_jobs - 1 do
    if preds_remaining.(j) = 0 then push_pending j (compute_est j)
  done;
  let unpark i =
    let q = ref parked.(i) in
    parked.(i) <- -1;
    while !q >= 0 do
      push_ready !q;
      q := parked_next.(!q)
    done
  in
  let fire j t =
    start_of_job.(j) <- t;
    decr unscheduled;
    let inst = jb.j_inst.(j) in
    let free = t + if jb.j_pipelined.(j) then 1 else jb.j_busy.(j) in
    free_from.(inst) <- free;
    for k = jb.out_off.(j) to jb.out_off.(j + 1) - 1 do
      avail.(jb.out_val.(k)) <- t + jb.out_at.(k)
    done;
    for k = succ_off.(j) to succ_off.(j + 1) - 1 do
      let s = succ.(k) in
      if succ_gap.(k) <> no_gap then lower.(s) <- max lower.(s) (t + succ_gap.(k));
      preds_remaining.(s) <- preds_remaining.(s) - 1;
      if preds_remaining.(s) = 0 then begin
        let est = compute_est s in
        if est <= t then push_ready s else push_pending s est
      end
    done;
    if free > t then Int_heap.push releases ((free lsl inst_bits) lor inst)
    else
      (* zero-occupancy fire: the instance is already free again this
         cycle, so parked jobs compete at the current time *)
      unpark inst
  in
  let deadlocked = ref false in
  while !unscheduled > 0 && not !deadlocked do
    let next_pending =
      if Int_heap.is_empty pending then max_int else Int_heap.top pending lsr job_bits
    in
    let next_release =
      if Int_heap.is_empty releases then max_int else Int_heap.top releases lsr inst_bits
    in
    let t = min next_pending next_release in
    (* nothing left to wait for, or past every feasible finish *)
    if t > bound then deadlocked := true
    else begin
      while (not (Int_heap.is_empty pending)) && Int_heap.top pending lsr job_bits <= t do
        incr pops;
        push_ready (Int_heap.pop pending land job_mask)
      done;
      while (not (Int_heap.is_empty releases)) && Int_heap.top releases lsr inst_bits <= t do
        incr pops;
        unpark (Int_heap.pop releases land inst_mask)
      done;
      while not (Int_heap.is_empty ready) do
        incr pops;
        let j = Int_heap.pop ready land job_mask in
        let inst = jb.j_inst.(j) in
        if free_from.(inst) <= t then fire j t
        else begin
          parked_next.(j) <- parked.(inst);
          parked.(inst) <- j
        end
      done
    end
  done;
  Metrics.incr c_schedules;
  Metrics.add c_events !pops;
  let n_nodes = Array.length dfg.Dfg.nodes in
  if !unscheduled > 0 then
    (* ordering constraints (register serialization vs data order)
       deadlocked: the design point is simply not schedulable *)
    { start = Array.make n_nodes (-1); avail; makespan = bound; feasible = false }
  else begin
    let start = Array.make n_nodes (-1) in
    let makespan = ref 0 in
    for j = 0 to n_jobs - 1 do
      for k = jb.mem_off.(j) to jb.mem_off.(j + 1) - 1 do
        start.(jb.mem.(k)) <- start_of_job.(j)
      done;
      makespan := max !makespan (start_of_job.(j) + jb.j_weight.(j))
    done;
    (* outputs and delays read their value at its availability *)
    Array.iter (fun v -> makespan := max !makespan avail.(v)) ix.Dfg.sink_values;
    let outputs_ok =
      match cs.output_deadline with
      | None -> true
      | Some deadlines ->
          Array.for_all2 (fun v dl -> avail.(v) <= dl) ix.Dfg.output_values deadlines
    in
    let feasible = !makespan <= cs.deadline && outputs_ok in
    { start; avail; makespan = !makespan; feasible }
  end

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let module_profile ?(cache = Cache.create ()) ctx rm behavior =
  fst (module_profile_impl cache ctx rm behavior)

let module_schedule ?(cache = Cache.create ()) ctx rm behavior =
  snd (module_profile_impl cache ctx rm behavior)

let schedule ?(cache = Cache.create ()) ctx (cs : constraints) (d : Design.t) =
  Span.span schedule_probe (fun () -> schedule_event cache ctx cs d)

(* ------------------------------------------------------------------ *)
(* Makespan lower bound *)

let bound_probe = Span.probe Span.Schedule "bound"

(* ASAP under the data dependences alone, one walk of the graph in
   topological order: each job starts once its external needs are
   available, as in the kernel's [compute_est], and register edges and
   resource conflicts are ignored, except that an instance is busy at
   least for the occupancies of its jobs in turn. A chain's members are
   one job: they share a start, raised member by member, so a member
   read before the last one is placed reads a start no later than the
   job's. Every term is at most what the kernel's schedule reaches. *)
let makespan_lower_bound ?(cache = Cache.create ()) ctx (cs : constraints) (d : Design.t) =
  Span.span bound_probe @@ fun () ->
  let dfg = d.Design.dfg in
  let ix = dfg.Dfg.index in
  let insts = d.Design.insts and node_inst = d.Design.node_inst in
  let n_insts = Array.length insts in
  (* each value's ASAP availability: constants and delays at 0 *)
  let avail = Array.make (Array.length ix.Dfg.value_node) 0 in
  Array.iteri
    (fun pos input_id -> avail.(ix.Dfg.value_off.(input_id)) <- cs.input_arrival.(pos))
    dfg.Dfg.inputs;
  (* per instance, the cycles its jobs hold it; and a chain's start *)
  let occupied = Array.make n_insts 0 and chain_start = Array.make n_insts 0 in
  let lb = ref 0 in
  (* the latest of the node's input values not produced on [chain] *)
  let ready id ~chain =
    let t = ref 0 in
    for s = ix.Dfg.in_off.(id) to ix.Dfg.in_off.(id + 1) - 1 do
      let v = ix.Dfg.in_val.(s) in
      if chain < 0 || node_inst.(ix.Dfg.value_node.(v)) <> chain then t := max !t avail.(v)
    done;
    !t
  in
  let finish id at =
    for v = ix.Dfg.value_off.(id) to ix.Dfg.value_off.(id + 1) - 1 do
      avail.(v) <- at
    done;
    lb := max !lb at
  in
  Array.iter
    (fun id ->
      match dfg.Dfg.nodes.(id).Dfg.kind with
      | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> ()
      | Dfg.Op _ | Dfg.Call _ -> (
          let i = node_inst.(id) in
          if i < 0 || i >= n_insts then
            invalid_arg (Printf.sprintf "Sched: node %s is unbound" dfg.Dfg.nodes.(id).Dfg.label);
          match insts.(i) with
          | Design.Simple fu ->
              let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
              let hold = if fu.Fu.pipelined then 1 else latency in
              if Fu.is_chain fu then begin
                let start = max chain_start.(i) (ready id ~chain:i) in
                chain_start.(i) <- start;
                occupied.(i) <- hold;
                finish id (start + latency)
              end
              else begin
                occupied.(i) <- occupied.(i) + hold;
                finish id (ready id ~chain:(-1) + latency)
              end
          | Design.Module rm ->
              let behavior =
                match dfg.Dfg.nodes.(id).Dfg.kind with
                | Dfg.Call b -> b
                | _ -> invalid_arg "Sched: non-call node on module instance"
              in
              let prof, _ = module_profile_impl cache ctx rm behavior in
              let base = ix.Dfg.in_off.(id) in
              let start = ref 0 in
              for s = base to ix.Dfg.in_off.(id + 1) - 1 do
                start := max !start (avail.(ix.Dfg.in_val.(s)) - prof.in_need.(s - base))
              done;
              let busy = max 1 prof.busy in
              occupied.(i) <- occupied.(i) + busy;
              lb := max !lb (!start + busy);
              for v = ix.Dfg.value_off.(id) to ix.Dfg.value_off.(id + 1) - 1 do
                avail.(v) <- !start + prof.out_ready.(v - ix.Dfg.value_off.(id));
                lb := max !lb avail.(v)
              done))
    ix.Dfg.order;
  Array.iter (fun n -> lb := max !lb n) occupied;
  Array.iter (fun v -> lb := max !lb avail.(v)) ix.Dfg.sink_values;
  !lb

(* ------------------------------------------------------------------ *)
(* ALAP (infinite resources) *)

let alap_start ?(cache = Cache.create ()) ctx ~deadline (d : Design.t) =
  let dfg = d.Design.dfg in
  let jb = build_jobs cache ctx d in
  (* latest time each value may become available; outputs and delays
     read theirs by the deadline, where every bound starts *)
  let latest_avail = Array.make (Design.n_values dfg) deadline in
  let job_latest = Array.make jb.n_jobs deadline in
  (* walk jobs in reverse dependence order: node topo order reversed *)
  let order = Dfg.topo_order dfg in
  for idx = Array.length order - 1 downto 0 do
    let j = jb.job_of_node.(order.(idx)) in
    if j >= 0 then begin
      for k = jb.out_off.(j) to jb.out_off.(j + 1) - 1 do
        job_latest.(j) <- min job_latest.(j) (latest_avail.(jb.out_val.(k)) - jb.out_at.(k))
      done;
      for k = jb.need_off.(j) to jb.need_off.(j + 1) - 1 do
        let v = jb.need_val.(k) in
        latest_avail.(v) <- min latest_avail.(v) (job_latest.(j) + jb.need_at.(k))
      done
    end
  done;
  let result = Array.make (Array.length dfg.Dfg.nodes) (-1) in
  for j = 0 to jb.n_jobs - 1 do
    for k = jb.mem_off.(j) to jb.mem_off.(j + 1) - 1 do
      result.(jb.mem.(k)) <- max 0 job_latest.(j)
    done
  done;
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
