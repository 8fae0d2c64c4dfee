(** Switched-capacitance power estimation.

    Replaces the paper's IRSIM switch-level measurement (see
    DESIGN.md) with the module-level model its own cost function uses
    (refs [8]/[10]): every resource charges its effective capacitance
    times the Hamming activity of the data it processes, in the order
    the schedule processes it. Consequently sharing a unit between
    two uncorrelated computations raises its activity — the effect
    that makes resource sharing/splitting (moves C/D) power-relevant.

    Accounted components: functional-unit activations (operand-tuple
    transitions per instance, in scheduled order), nested RTL modules
    (recursively, over the merged invocation streams of all calls
    bound to them), register writes, multiplexer and wire transfers,
    and the controller's per-cycle overhead. Energies are in
    capacitance units; multiply by [Voltage.energy_factor] and divide
    by the sampling period for power.

    A port of an instance is the set of its feeds with one port key
    ({!Area.iter_feeds}); its activity is the Hamming distance summed
    over its operand stream, sample after sample, divided by the word
    width. A simple unit charges its capacitance times the mean
    activity of its ports. Every port, of a unit or a module, charges
    the wire capacitance times its activity, plus the multiplexer
    capacitance when some source feeding it differs from the first. A
    register charges register, wire and (when it holds more than one
    value) multiplexer capacitance times the activity of its writes,
    which go in [avail] order, writes of one cycle in ascending data
    order. The model runs as passes over flat arrays built once per
    call, and adds its terms in a fixed order (over a module's
    behaviors, the order of [Hashtbl.iter]), which is part of the
    result's bits.

    Each stream starts from an all-zero word, so the toggle count of a
    port fed by one value, or of a register holding one, is that
    value's own count: the Hamming distances along its stream from the
    zero word. Those counts are computed once with the streams and
    read; ports of several operands and registers of several values
    walk their samples.

    Known defect, kept for bit-identical results: a shared unit's
    operand stream is ordered by the start cycle of each operand's
    {e producer}, not of the operation consuming it, and every primary
    input, constant and delay producer ties at start [-1]. See
    DESIGN.md §5. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched

type memo
(** What the power candidates of one evaluation context share, kept
    across {!energy_per_sample} calls:

    - {b value streams per (graph, bound parts)}: the top-level
      streams of {!Sim.run}, keyed by the graph and the part bound to
      each call node in node order, all compared by physical identity.
      The values in the streams are fixed by those and the trace; a
      candidate only changes how they interleave on resources. The
      parts belong to the key because the registry never checks that
      the variants of a behavior compute the same function. An entry
      also holds each value's own toggle count, counted when the entry
      is built; nested parts count theirs on each call.
    - {b module-part energies}: a part's energy per invocation, keyed
      by its module (physically), the behavior and the part's
      invocation stream, which is the arguments of the calls bound to
      the module's instance in start order, sample after sample. The
      key holds that stream as one flat array of words; every call of
      a behavior has its part's arity, so the flat key is equal
      exactly when the stream is. A candidate whose part sees the same
      invocations, in this graph or another, neither simulates the
      part nor looks its profile up. Nested parts use the same table.
    - {b idle terms per module}: the registers a module instance
      clocks and the capacitance of its units, nested modules
      included, keyed by the module's physical identity (two modules
      may share a name), read by {!energy_per_sample}.

    The tables are bounded (16 stream entries, 512 part energies and
    256 modules, second-chance eviction) and domain-safe, and each key
    is computed once per residency. Reused values are the ones a fresh
    computation produces, so results are bit-identical with and
    without a memo. *)

val memo : Design.ctx -> trace:int array list -> memo
(** An empty memo for one technology context and one trace, both
    compared physically on every use. The evaluation engine creates
    one per engine and drops it with the engine. *)

val energy_per_sample :
  ?sched_cache:Sched.Cache.t ->
  ?sched:Sched.schedule ->
  ?memo:memo ->
  Design.ctx ->
  Sched.constraints ->
  Design.t ->
  int array list ->
  float
(** Average switched capacitance per design invocation over the given
    trace (raw cap units, no voltage scaling). Operand and register
    streams follow the design's schedule: [?sched] when given, which
    must be [Sched.schedule ctx cs design] (the evaluation engine
    passes the one its cheap stage already computed), else the design
    is scheduled here. Nested module parts replay the schedule their
    module profile was read from ({!Sched.module_schedule}).
    [?sched_cache] memoizes scheduling and profiles across calls —
    without it a fresh cache scoped to this call is used. [?memo]
    reuses the streams and part energies of earlier calls in the same
    evaluation context; without it nothing is reused across calls.
    [0.] for an empty trace.
    @raise Invalid_argument if [memo] was made for another context or
    trace than [ctx] and the given invocations. *)

val energy_floor : Design.ctx -> Design.t -> makespan:int -> n_samples:int -> float
(** Trace-independent lower bound on {!energy_per_sample} for a design
    whose schedule has the given makespan, over a trace of [n_samples]
    invocations: the controller, register-clocking and idle-switching
    charges, which do not depend on data activity. The evaluation
    engine uses it to prove a candidate cannot beat the incumbent
    without running the trace simulation. [0.] when [n_samples <= 0]
    (the simulation then reports zero energy). *)

val power :
  ?sched_cache:Sched.Cache.t ->
  Design.ctx ->
  Sched.constraints ->
  Design.t ->
  int array list ->
  sampling_ns:float ->
  float
(** [energy_per_sample · V²-factor / sampling period] — normalized
    power at the context's supply voltage. *)
