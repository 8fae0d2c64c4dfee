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

(** {1 Kernel selection}

    The event-driven kernel is the default. It keeps its jobs, job
    graph and queues in flat [int] arrays: jobs, members, needs, outputs
    and successor edges as CSR slices, and the ready, pending and
    release queues as allocation-free {!Hsyn_util.Int_heap}s over packed
    [(key, payload)] ints. Time jumps from event to event. Jobs are
    numbered by instance, then member node, and that number breaks
    ready-queue ties, as the legacy kernel's argmax scan does.

    The original time-stepped kernel is kept verbatim and selectable —
    [HSYN_SCHED=legacy] in the environment at startup, or {!set_impl}
    at runtime — so differential tests can prove the two produce
    bit-identical schedules. *)

type impl = Event | Legacy

val impl : unit -> impl
val set_impl : impl -> unit

(** {1 Memoization caches}

    The scheduler keeps no global mutable cache state. All memoization
    lives in an explicit {!Cache.t} owned by the caller (in practice a
    synthesis session, see [Hsyn_core.Session]) and passed to every
    entry point:

    - {b prepared contexts}, keyed by the graph's physical identity.
      Everything the scheduler needs that depends only on the DFG is
      hoisted into a context built once per graph: value numbering,
      each node's input value ids, each value's readers and whether
      each reads at a job's start or (an output or delay) at the
      value's availability, the node kinds the kernel checks, and
      every value in topological order of its producer, so that a
      register's write order is read off instead of sorted. Candidate
      designs produced by the move loop share their graph physically,
      so one context serves thousands of evaluations. Every entry
      point that needs one — {!schedule}, {!module_profile},
      {!alap_start} — looks it up here.
    - {b module profiles}, keyed by (module, kernel, behavior, vdd,
      clock).

    Entry points called without a cache allocate a transient one
    scoped to that call: recursive profile computation is still
    memoized within the call, but nothing persists or is shared.

    Caches are domain-safe (sharded, per-shard locking) and each key is
    built exactly once per residency even under concurrent lookups. *)

module Cache : sig
  type t

  type cache_stats = {
    prepared_tbl : Hsyn_util.Shard_tbl.stats;
    profile_tbl : Hsyn_util.Shard_tbl.stats;
  }

  val create : unit -> t
  (** 8 shards per table, 256 prepared contexts, 1024 profiles; both
      tables use second-chance (clock) eviction. *)

  val transient : unit -> t
  (** A small single-shard cache (64 prepared contexts, 256 profiles)
      for one call of an entry point that was given none. *)

  val stats : t -> cache_stats
end

val module_profile : ?cache:Cache.t -> Design.ctx -> Design.rtl_module -> string -> profile
(** Profile of a module for one behavior, derived by scheduling the
    corresponding part with all inputs at 0 (recursively through
    nested modules). Memoized per (module, kernel, behavior, vdd,
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
    [d.dfg]'s prepared context from the cache.
    @raise Invalid_argument if the binding is structurally unusable
    (e.g. an unbound operation). *)

val schedule_legacy : ?cache:Cache.t -> Design.ctx -> constraints -> Design.t -> schedule
(** The original time-stepped kernel, regardless of {!impl}. Reference
    implementation for differential tests. *)

(** {1 Kernel counters} *)

type stats = {
  schedules : int;  (** scheduling calls, either kernel, incl. module parts *)
  legacy_schedules : int;  (** subset served by the legacy kernel *)
  events_popped : int;  (** queue pops inside the event kernel *)
  prepared_hits : int;  (** prepared-context cache hits *)
  prepared_builds : int;  (** prepared-context builds *)
}

val stats : unit -> stats
(** Snapshot of the process-wide counters. *)

val zero_stats : stats

val sub_stats : stats -> stats -> stats
(** Pointwise difference, for windowed deltas. *)

val pp_stats : Format.formatter -> stats -> unit

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
