(** Scheduling of bound designs, and the timing analyses built on it.

    Given a design (binding of DFG nodes to instances) and a technology
    context, the scheduler assigns a start cycle to every job so that
    data dependences, per-instance serialization, chaining-unit
    grouping, multicycle latencies, pipelined initiation intervals and
    hierarchical-module profiles are all respected, using list
    scheduling with longest-path-to-sink priorities. The paper uses
    the scheduler as the validity oracle for every move ("when a move
    is performed, its validity is checked by scheduling"); this module
    is that oracle.

    Timing quantities follow the paper's Example 1: an RTL module's
    {e profile} records when each input is expected and each output
    produced relative to the module's own start; when inputs arrive at
    times aᵢ the module starts at max(aᵢ − inᵢ) and output j appears
    at start + outⱼ. *)

module Dfg = Hsyn_dfg.Dfg
module Design = Hsyn_rtl.Design

type profile = {
  in_need : int array;  (** cycle each input is first consumed, relative to module start *)
  out_ready : int array;  (** cycle each output is produced, relative to module start *)
  busy : int;  (** cycles the module is occupied per activation *)
}

type constraints = {
  input_arrival : int array;
      (** arrival cycle of each primary input (all zero for top-level
          synthesis; nonzero when resynthesizing a module under its
          environment) *)
  output_deadline : int array option;
      (** per-output latest availability, if constrained *)
  deadline : int;  (** sampling period in cycles *)
}

val relaxed : deadline:int -> Dfg.t -> constraints
(** All inputs at 0, no per-output deadlines, the given sampling
    period. *)

type schedule = {
  start : int array;  (** per node; -1 for nodes that execute nothing *)
  avail : int array;  (** per value id: cycle the value becomes available *)
  makespan : int;  (** last activity (job end, delay write, output consume) *)
  feasible : bool;  (** deadline and per-output deadlines met *)
}

(** {1 The kernel}

    The event-driven kernel is the only kernel. It keeps its jobs, job
    graph and queues in flat [int] arrays: jobs, members, needs, outputs
    and successor edges as CSR slices, and the ready, pending and
    release queues as allocation-free {!Hsyn_util.Int_heap}s over packed
    [(key, payload)] ints. Time jumps from event to event. Jobs are
    numbered by instance, then member node, and that number breaks
    ready-queue ties, as the argmax scan of the original time-stepped
    kernel does. That kernel is the differential reference
    [Hsyn_fuzz.Sched_ref]. *)

type impl = Event | Legacy

val impl : unit -> impl
(** Always [Event]; kept only because [bench/perf/perf.ml] reads it. *)

(** {1 Memoization}

    Everything the kernel needs that depends only on the graph — value
    numbering, each node's input values, each value's readers and
    whether each reads at a job's start or (an output or delay) at the
    value's availability, the nodes that must be bound, and every value
    in topological order of its producer, so that a register's write
    order is read off instead of sorted — is the graph's own
    {!Dfg.index}, built once by {!Dfg.Builder.finish}. Candidate
    designs produced by the move loop share their graph physically, so
    they share its index too.

    The scheduler keeps no global mutable cache state. Its one memo,
    of module profiles keyed by (module identity, behavior, vdd,
    clock), lives in an explicit {!Cache.t} owned by the caller (in
    practice a synthesis session, see [Hsyn_core.Session]) and passed
    to every entry point. Entry points called without a cache make a
    fresh {!Cache.create} scoped to that call: recursive profile
    computation is still memoized within the call, but nothing
    persists or is shared.

    The cache is domain-safe (one lock) and each key is built exactly
    once per residency even under concurrent lookups. *)

module Cache : sig
  type t

  val create : unit -> t
  (** 1024 profiles, with second-chance (clock) eviction. *)

  val stats : t -> Hsyn_util.Shard_tbl.stats
end

val module_profile : ?cache:Cache.t -> Design.ctx -> Design.rtl_module -> string -> profile
(** Profile of a module for one behavior, derived by scheduling the
    corresponding part with all inputs at 0 (recursively through
    nested modules). Memoized per (module identity, behavior, vdd,
    clock) in the given cache; domain-safe. *)

val module_schedule : ?cache:Cache.t -> Design.ctx -> Design.rtl_module -> string -> schedule
(** The schedule {!module_profile} reads its profile from: the part
    for the behavior scheduled with all inputs at 0 and no deadline to
    speak of ({!relaxed} at an effectively infinite deadline). It is
    kept in the same cache entry as the profile, so a profile lookup
    and this one schedule the part at most once. The power model
    replays it for nested modules. The arrays are shared with the
    cache: callers must not mutate them. *)

val schedule : ?cache:Cache.t -> Design.ctx -> constraints -> Design.t -> schedule
(** List-schedule the design. Always returns a schedule; check
    [feasible] for constraint satisfaction. The event kernel takes
    [d.dfg]'s tables from its {!Dfg.index}.
    @raise Invalid_argument if the binding is structurally unusable
    (e.g. an unbound operation). *)

val makespan_lower_bound : ?cache:Cache.t -> Design.ctx -> constraints -> Design.t -> int
(** A lower bound on [(schedule ctx cs d).makespan] for every design
    the kernel schedules without deadlock, from one walk of the graph's
    {!Dfg.index} in topological order, with no job build, heap or event
    loop: the largest of each job's ASAP finish over its data needs
    alone (a chain's members share one start; a call reads its
    profile's [in_need] and [out_ready], looked up in [cache] as
    {!schedule} does), each instance's summed occupancy (one cycle per
    job on a pipelined unit, its latency otherwise) and the ASAP
    availability of the values outputs and delays read. Register edges
    are ignored. So a design whose bound exceeds [cs.deadline]
    schedules infeasible. Runs under its own [bound] span.
    @raise Invalid_argument on an unbound operation, as {!schedule}
    does. *)

(** {1 Kernel counters}

    The kernel counts in the metrics registry ({!Hsyn_obs.Metrics}),
    through handles made once when this module is initialized:
    [sched.schedules] and [sched.events_popped]. Like every probe they
    count only while metrics are armed; disarmed, a write costs one
    atomic load. So they reach [--metrics], [--stats], [hsyn report]
    and the daemon's scrapes, and {!Hsyn_obs.Metrics.reset} zeroes
    them. *)

type stats = {
  schedules : int;  (** scheduling calls, incl. module parts *)
  events_popped : int;  (** queue pops inside the kernel *)
  prepared_hits : int;  (** always 0 *)
  prepared_builds : int;  (** always 0 *)
}
(** The two [prepared_*] fields counted a cache of per-graph tables
    that is now the graph's {!Dfg.index}. They stay, always 0, only
    because [bench/perf/layers.ml] reads them, like {!impl}. *)

val stats : unit -> stats
(** The two registry counters as they read now: process-wide, counted
    since the last {!Hsyn_obs.Metrics.reset} and only while metrics
    were armed. *)

val zero_stats : stats

val sub_stats : stats -> stats -> stats
(** Pointwise difference, for windowed deltas. *)

val alap_start : ?cache:Cache.t -> Design.ctx -> deadline:int -> Design.t -> int array
(** Latest start time of each node under infinite resources — an
    optimistic slack bound used to derive relaxed constraints for
    moves of type B; moves are re-validated by {!schedule}. [-1]
    for non-executing nodes. *)

val critical_path_ns : Hsyn_modlib.Library.t -> Dfg.t -> float
(** Lower bound on the sampling period in ns at 5 V: dependence-only
    longest path of the flattened behavior with every operation on its
    fastest library unit, each operation rounded up to one clock-free
    ns duration. Used to define the paper's laxity factor
    (L.F. = sampling period / minimum sampling period). The graph must
    be flat. *)

val pp_schedule : Format.formatter -> Design.t * schedule -> unit
(** Gantt-style dump: per cycle, the jobs starting there (regenerates
    Figure 1(b)). *)
