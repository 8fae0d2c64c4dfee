(** The candidate-evaluation engine of the move loop.

    Every cost query of the iterative-improvement engine — single
    evaluations in {!Pass} and batch best-candidate selection in
    {!Moves} — goes through an [Engine.t] instead of calling
    {!Cost.evaluate} directly. The engine layers three mechanisms on
    the same cost oracle, all of them result-preserving:

    - {b memoization} — a structural fingerprint of the design
      ({!Hsyn_rtl.Design.fingerprint}) keys a bounded cost cache, so
      candidates re-generated across passes and across the move
      families are never re-scheduled or re-simulated. Hits are
      verified by structural equality, making collisions harmless.
    - {b staged evaluation} — in area mode a batch bounds each miss
      before scheduling it ({!Cost.area_bound}) and schedules only
      the candidates whose bound can still beat the best value seen
      so far in the batch; otherwise scheduling feasibility and area
      are computed first, and in power mode the expensive trace
      simulation runs only for candidates whose trace-independent
      lower bound ({!Cost.objective_lower_bound}) can still beat the
      best value seen so far. Skipping is exact: a skipped candidate
      provably cannot win.
    - {b parallel batches} — stage-one and stage-two evaluations of a
      candidate batch run on a fixed {!Hsyn_util.Pool} of domains,
      sized by [HSYN_JOBS] / [--jobs], falling back to plain
      sequential evaluation at [jobs = 1].

    {b One probe.} {!evaluate}, {!evaluate_with_power} and {!best_of}
    share one probe: it fingerprints and looks up a set of designs
    (one design for a single evaluation, the candidates of a batch
    otherwise), each on its own, so duplicates within one batch are
    each a miss. A single evaluation and a power batch then run stage
    one for every miss — on the pool when there are several — and
    insert them; a single evaluation fills in the power stage when it
    needs it, replaying the stage-one schedule of a miss, and a power
    batch simulates its unfinished candidates in waves. An area batch
    runs stage one only on the misses its bound leaves a chance to win
    (see {!best_of}), and inserts only those. The cache holds
    evaluations, never a bound. A single evaluation never polls the
    budget.

    {b Shared work.} A cost-cache miss still reuses what it shares with
    earlier candidates of the same engine: each engine creates a
    {!Cost.memo} for its technology context and trace, passes it to
    both stages, and drops it with the engine. It keeps module areas
    per module, value streams per (graph, bound parts) and module-part
    energies per (module, behavior, invocation stream); modules, graphs
    and parts compare by physical identity. It also keeps the last
    top-level steering count, which a module-selection candidate
    shares with its parent. Every table is bounded and safe on the
    engine's pool (see {!Hsyn_eval.Power.memo} and
    {!Hsyn_eval.Area.memo}). Direct {!Cost.evaluate} calls take no
    memo and stay uncached. Scheduling tables are not the engine's:
    each schedule reads its graph's {!Hsyn_dfg.Dfg.index}, and looks
    module profiles up in the session's scheduler cache
    ({!Session.sched_cache}), as the move generators' own schedules
    do.

    Results are bit-identical to direct {!Cost.evaluate} calls and
    independent of the pool size.

    {b What the engine counts.} A batch or single evaluation counts
    into one tally of {!Session.counters} fields, and when it ends
    (also when it raises) hands the tally to every store at once: the
    engine's own totals ({!counters}), its session's totals and, for
    batch candidates, the session's per-family totals under the
    candidate's [family] label ({!Session.family_totals}), under one
    session lock, and with metrics enabled the [engine.<field>] and
    [engine.<field>.<family>] counters. Generated candidates, hits,
    misses, evaluations, evictions, simulations and skips of a batch
    are attributed to the family; batches and the work of single
    evaluations are not. [evaluated] counts stage-one runs: in an area
    batch, [cache_misses - evaluated] is the number of misses the
    area bound dropped. A batch's time is the [batch] span's
    ([stage.batch] with metrics enabled). *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched

type policy = {
  jobs : int;  (** parallelism degree; 1 = sequential, no domains *)
  cache_capacity : int;  (** max memoized designs; 0 disables the cache *)
}

val default_policy : policy
(** [jobs] from [HSYN_JOBS] (default 1), capacity 4096. *)

type t

val create :
  ?policy:policy ->
  ?session:Session.t ->
  ?token:Budget.token ->
  ctx:Design.ctx ->
  cs:Sched.constraints ->
  sampling_ns:float ->
  trace:int array list ->
  objective:Cost.objective ->
  unit ->
  t
(** An engine is bound to one evaluation context — the technology
    context, constraints, sampling period, input trace and objective
    fixed for one improvement run — and borrows its caches from
    [session] (a fresh private session when omitted). The session's
    cost cache is partitioned by the evaluation context, so engines
    with different contexts sharing a session can never alias, and
    results are bit-identical whether the session is fresh or shared
    (see {!Session}).

    When a budget [token] is given, {!best_of} polls its deadline and
    cancellation between evaluation waves and inside worker tasks,
    raising {!Budget.Interrupted}. An interrupted batch leaves no
    worker domain stuck and no partial result visible. The improvement
    loop polls the same token through {!interrupted}. *)

val session : t -> Session.t
(** The session this engine was created against. *)

(** {1 The evaluation context}

    The engine owns its improvement run's evaluation context and
    budget token: the move generators and {!Pass.improve} read them
    here. *)

val ctx : t -> Design.ctx
val constraints : t -> Sched.constraints
val sampling_ns : t -> float
val trace : t -> int array list
val objective : t -> Cost.objective

val interrupted : t -> Budget.reason option
(** What has fired on the engine's budget token — its deadline or a
    cancellation — or [None], always [None] without a token. *)

val evaluate : t -> Design.t -> Cost.eval
(** Memoized equivalent of
    [Cost.evaluate ~with_power:(objective = Power)]. *)

val evaluate_with_power : t -> Design.t -> Cost.eval
(** Memoized equivalent of [Cost.evaluate ~with_power:true] regardless
    of the objective — for final result reporting. A cached area-only
    entry is upgraded in place (only the simulation runs); a miss
    schedules the design once for both stages. *)

type family
(** A move family's label and its [engine.<field>.<name>] metrics
    handles. *)

val family : string -> family
(** [family name] registers the family's [engine.*] counters; make one
    per family, once (e.g. at top level), so a batch writes them
    without a lookup. *)

val best_of :
  t ->
  ?family:('a -> family) ->
  limit:int ->
  ('a * Design.t) Seq.t ->
  ('a * Design.t * Cost.eval * float) option
(** Pull at most [limit] candidates from the (lazily produced)
    sequence, evaluate them — memoized, staged, in parallel batches —
    and return the feasible candidate minimizing the objective, with
    its evaluation and objective value. Ties go to the earliest
    candidate, matching a sequential fold; the result does not depend
    on [jobs].

    For the area objective the cache hits compete at once, and every
    miss is bounded before it is scheduled ({!Cost.area_bound}: its
    datapath area through the engine's memo, plus the controller at
    the makespan lower bound; infinite when that bound exceeds the
    deadline). Stage one then runs in (bound, index) order, reusing
    the bound's datapath area, one candidate at a time at [jobs = 1]
    and in waves of [jobs] on the pool otherwise, and stops at the
    first candidate whose bound is above the incumbent's value, or
    equal to it with a later index: it, and every candidate after it,
    cannot win. A skipped candidate never enters the cost cache, so
    the next batch that generates it bounds it again. The winner and
    its evaluation are those of evaluating every candidate; only the
    counts depend on [jobs]. For the power objective every miss runs
    stage one, and the simulations are staged as above.

    The design returned is the candidate as the sequence produced it,
    never a cache entry's structurally equal copy, so what follows
    (memos keyed by physical identity included) does not depend on
    which engine cached the design first. [family] labels candidates
    for the session's per-family counters.

    Spans: [batch] covers the call, [generate] the pulling of the
    sequence (including nested resynthesis), [probe] the
    fingerprinting and cache lookup, and [bound] (in
    {!Sched.makespan_lower_bound}) each area candidate's makespan
    bound. *)

val counters : t -> Session.counters
(** Snapshot of this engine's totals. *)

val cache_size : t -> int
(** Resident entries in this engine's context slice of the session
    cost cache (0 when the cache is disabled). *)

(** Engines are created at every level of the synthesis recursion
    (top-level improvement, complex-library construction, move-B
    resynthesis); the {!Session} they share aggregates counters across
    all of them for the bench harness and tests, and the registry's
    [engine.*] counters across all of them for [--stats], [--metrics]
    and [hsyn report]. *)
