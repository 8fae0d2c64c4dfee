(** Session-scoped memoization and accounting for synthesis.

    A session owns every piece of state that used to be global or
    per-engine: the scheduler's module-profile cache, the engine's
    fingerprint-keyed cost cache, and the aggregated evaluation
    counters. Engines, passes and requests all borrow from the session
    they were created with — there is no process-wide mutable cache
    state left in [lib/core] or [lib/sched].

    Sharing one session across N concurrent [Synthesize.synthesize]
    calls is safe and bit-identical to running each call on a fresh
    session: every cached value is a deterministic function of its key
    (cost entries are additionally verified structurally against the
    design, so fingerprint collisions fall through to recomputation),
    so a cache hit only changes {e which computation ran}, never the
    value observed. The cost cache is partitioned by the full
    evaluation context (library, vdd, clock, constraints, sampling
    period, trace), so requests with different parameters can share a
    session without aliasing.

    One asymmetry is allowed by design: a shared entry can be {e more
    complete} than a fresh run would have produced at the same point —
    its power simulation may already be filled in by an earlier run.
    Completeness never changes a search decision (area objectives
    ignore power; power-mode bound skipping is exact), and final
    results are always fully evaluated, so results stay bit-identical.

    The session is the unit [hsyn serve] shares between concurrent
    requests, and [hsyn synth --share-session] across the designs of
    one invocation. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Shard_tbl = Hsyn_util.Shard_tbl

(** {1 Evaluation counters}

    Owned here (rather than by [Engine]) so the session can aggregate
    across every engine created against it. *)

type counters = {
  generated : int;  (** candidates pulled from the move generators *)
  evaluated : int;
      (** stage-one runs (schedule + area): one per miss of a single
          evaluation or a power batch, and per miss of an area batch
          whose bound left it a chance to win, so in an area batch
          [cache_misses - evaluated] is what the area bound dropped *)
  cache_hits : int;
  cache_misses : int;
  evictions : int;  (** cache entries dropped to respect capacity *)
  power_sims : int;  (** trace simulations actually run *)
  power_skipped : int;  (** simulations avoided by the staged bound *)
  batches : int;  (** [Engine.best_of] calls; never attributed to a family *)
  disk_hits : int;  (** cache hits served by entries loaded from disk *)
}

val zero : counters
val add : counters -> counters -> counters

val sub : counters -> counters -> counters
(** Fieldwise difference — [sub after before] is the delta of an
    interval, used to attribute engine work to one improvement run. *)

(** {1 Sessions} *)

type t

val create : unit -> t
(** An empty session: at most 64 evaluation contexts keep a live cost
    cache (second-chance eviction beyond that, like every table here),
    and the scheduler cache has {!Sched.Cache.create}'s sizes. *)

val sched_cache : t -> Sched.Cache.t
(** The scheduler-side cache (module profiles) this session owns;
    pass it to [Sched]/[Area]/[Power] entry points. *)

(** {1 Aggregated accounting} *)

val bump : t -> counters -> (string * counters) list -> unit
(** [bump t d families] adds [d] to the session totals and each
    family's delta to that family's total, under one lock.
    Thread-safe; an engine calls it once per batch or single
    evaluation. *)

val totals : t -> counters

val family_totals : t -> (string * counters) list
(** Sorted by family name. *)

(** {1 The cost cache}

    Fingerprint-keyed evaluation entries, one table per evaluation
    context. An entry's state is a single atomic value — either
    [Partial] (schedule + area only) or [Full] (trace simulation
    included) — so concurrent engines upgrading or reading an entry
    can never observe a torn pair of "power done" flag and stale
    eval. *)

type entry_state = Partial of Cost.eval | Full of Cost.eval

type entry = { e_design : Design.t; e_state : entry_state Atomic.t; e_from_disk : bool }
(** [e_from_disk] marks entries repopulated by {!load_into}; hits on
    them are counted as [disk_hits] in addition to [cache_hits]. *)

val entry_eval : entry -> Cost.eval

type cost_cache

val cost_cache :
  t ->
  capacity:int ->
  ctx:Design.ctx ->
  cs:Sched.constraints ->
  sampling_ns:float ->
  trace:int array list ->
  cost_cache
(** The session's cost cache for one evaluation context, created on
    first use. [capacity] only applies to that first creation (the
    table is shared afterwards); the library is compared by physical
    identity, everything else structurally. *)

val cost_find : cost_cache -> int64 -> Design.t -> entry option
(** Lookup verified against the design: a fingerprint collision is
    reported as a miss, never a wrong entry. *)

val cost_insert : cost_cache -> int64 -> entry -> int
(** Insert (or replace, after a collision) an entry; returns the
    number of entries evicted to make room. *)

val cost_size : cost_cache -> int

(** {1 Persistence}

    The disk tier of ROADMAP item 2: {!save} snapshots every live
    evaluation context's cost cache into a cache directory — one
    content-addressed, versioned file per module library (see
    {!Cache_file}) — and {!load_into} repopulates a (typically fresh)
    session from it. Reloaded entries carry their design, so the
    structural-verification guarantee survives the round trip: a
    fingerprint collision against a disk-loaded entry degrades to
    recomputation exactly like an in-memory one, and a warm run is
    bit-identical to a cold run. *)

val save : t -> dir:string -> (int, string) result
(** Write one cache file per library under [dir] (created if missing),
    atomically. Returns the number of entries persisted. *)

val load_into : ?capacity:int -> t -> lib:Hsyn_modlib.Library.t -> dir:string -> (int, string) result
(** Repopulate [t] from the cache file for [lib] under [dir]. [Ok 0]
    when no file exists (a cold start); [Error _] for unreadable,
    version-mismatched or foreign files — callers log a warning and
    continue cold, never fail the run. Live entries are never
    overwritten. [capacity] (default 4096, matching
    [Engine.default_policy]) sizes context caches created here. *)

(** {1 Statistics and export} *)

type stats = {
  cost_tbl : Shard_tbl.stats;  (** aggregated over all context caches *)
  contexts : int;  (** live evaluation contexts *)
  profile_tbl : Shard_tbl.stats;  (** the scheduler's module profiles *)
}

val stats : t -> stats

val export_metrics : t -> unit
(** Publish the current {!stats} through [Obs.Metrics] as
    [session.<table>.*] gauges for the [cost] and [profiles] tables
    (hits, misses, evictions, size, capacity (0 when unbounded; the
    cost table's sums its contexts')) plus
    [session.contexts]. A no-op while metrics are disabled. Call after
    a run (or periodically from a server loop); values are absolute
    snapshots, not deltas. *)
