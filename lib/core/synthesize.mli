(** SYNTHESIZE — the top level of H-SYN (Figure 4), as an anytime run.

    Iterates over the pruned supply-voltage and clock-period sets; for
    each context it builds the complex-module library, constructs the
    initial solution, runs variable-depth iterative improvement, and
    keeps the best feasible design under the requested objective.
    Area optimization runs at 5 V (the paper's area-optimized circuits
    are synthesized at 5 V and voltage-scaled afterwards); power
    optimization explores the full V{_dd} set.

    The modern entry point is {!synthesize}, driven by a validated
    {!Request.t}. It is {e anytime}: give it a {!Budget.t} (or cancel
    its token) and it stops — between contexts for the context quota,
    at the next move boundary or mid-batch for the deadline or a
    cancellation — returning the best feasible design found so far,
    with {!result.completed} and {!result.coverage} saying how much of
    the sweep ran. Progress is observable through {!Events},
    interrupted sweeps are resumable through {!Checkpoint}, and
    {!synthesize}'s [cache_dir] gives runs a persistent warm start (see
    {!Session.save}). *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Library = Hsyn_modlib.Library

type config = {
  max_moves : int;  (** tentative moves per improvement pass *)
  max_passes : int;  (** improvement passes per context *)
  max_candidates : int;  (** candidate cap per move family *)
  trace_length : int;  (** samples in the power-estimation trace *)
  trace_kind : Hsyn_eval.Trace.kind;
  seed : int;  (** RNG seed (traces, nothing else is random) *)
  vdd_candidates : float list;
      (** supply voltages tried under the power objective, each above
          {!Hsyn_modlib.Voltage.threshold} *)
  max_clocks : int;
      (** clock periods tried per voltage, spread over the library's
          candidates ({!Hsyn_modlib.Clock.candidates}) *)
  enable_resynth : bool;  (** allow move B *)
  enable_embed : bool;  (** allow complex-module merging via RTL embedding *)
  enable_split : bool;  (** allow move family D *)
  enable_rewrite : bool;  (** allow move family E (algebraic rewriting) *)
  clib_effort : Clib.effort;
  engine : Engine.policy;
      (** evaluation-engine policy (jobs, cache capacity) used by the
          top-level improvement runs and move B's nested ones; library
          construction uses [clib_effort.engine] *)
}

val default_config : config

(** Validated view of {!config}. [Config.t] {e is} [config]: build one
    by record update ([{ Config.default with … }]), and
    {!Config.validate} rejects nonsense (non-positive effort bounds, an
    empty voltage set, a voltage at or below the device threshold, …)
    before a run starts instead of failing somewhere inside the
    sweep. {!Request.make} validates too. *)
module Config : sig
  type t = config

  val default : t
  val validate : t -> (t, string) result
end

val min_sampling_ns : Library.t -> Registry.t -> Dfg.t -> float
(** Minimum sampling period of the behavior with this library (the
    laxity-factor denominator): dependence-bound critical path of the
    flattened DFG at 5 V with the fastest units. *)

(** A complete, validated synthesis request: the problem (library,
    behavior registry, top DFG, objective, sampling period) bundled
    with its {!Config.t} and {!Budget.t}. *)
module Request : sig
  type t = private {
    lib : Library.t;
    registry : Registry.t;
    dfg : Dfg.t;
    objective : Cost.objective;
    sampling_ns : float;
    config : Config.t;
    budget : Budget.t;
    flatten : bool;  (** flatten the hierarchy first (baseline mode) *)
    session : Session.t option;
        (** memoization session shared with other requests; [None]
            gives the run a fresh private session *)
  }

  val make :
    ?config:Config.t ->
    ?budget:Budget.t ->
    ?flatten:bool ->
    ?session:Session.t ->
    lib:Library.t ->
    registry:Registry.t ->
    dfg:Dfg.t ->
    objective:Cost.objective ->
    sampling_ns:float ->
    unit ->
    (t, string) result
  (** Validates the config and [sampling_ns > 0]. Passing [session]
      lets several (possibly concurrent) requests share one
      memoization session — results are bit-identical to running each
      request on its own fresh session (see {!Session}). *)

  val effective_dfg : t -> Dfg.t
  (** The DFG the sweep actually runs on ([dfg], flattened when
      [flatten] is set). *)

  val plan : t -> (float * float * int) list
  (** The deterministic [(vdd, clk_ns, deadline_cycles)] walk order of
      the sweep, after voltage pruning and clock spreading. Checkpoint
      cursors index into exactly this list. *)
end

type coverage = {
  contexts_planned : int;
  contexts_started : int;  (** includes a final partially-run context *)
  contexts_done : int;  (** fully finished (the resumable prefix) *)
  passes_run : int;
      (** top-level improvement passes: the sum of {!Pass.stats.passes}
          over every context run, finished or interrupted, plus what a
          resumed checkpoint counted *)
  moves_tried : int;  (** the same sum of {!Pass.stats.moves_tried} *)
  stop_reason : string option;
      (** {!Budget.reason_name} of what stopped the sweep; [None] when
          it ran to completion *)
}

type result = {
  design : Design.t;
  ctx : Design.ctx;
  eval : Cost.eval;  (** with power computed, whatever the objective *)
  objective : Cost.objective;
  sampling_ns : float;
  deadline_cycles : int;
  elapsed_s : float;  (** wall-clock synthesis time *)
  stats : Pass.stats;  (** improvement statistics of the winning context *)
  clib : Clib.t;  (** complex library of the winning context *)
  completed : bool;  (** the full sweep ran (no budget interruption) *)
  coverage : coverage;
}

(** Stable JSON rendering of a {!result}, shared by [hsyn synth
    --json], the benchmark reports, and the {!Events.Run_finished}
    payload. The schema is versioned: field additions bump nothing,
    renames/removals bump {!Result.schema_version}. *)
module Result : sig
  type t = result

  val schema_version : int

  val to_json_value : t -> Hsyn_util.Json.t
  val to_json : t -> string
end

val make_resynth :
  ?session:Session.t ->
  ?token:Budget.token ->
  config ->
  Registry.t ->
  (string -> Design.rtl_module list) ->
  Design.ctx ->
  Cost.objective ->
  string ->
  Hsyn_sched.Sched.constraints ->
  Design.t ->
  Design.t
(** [make_resynth config registry complexes ctx objective] is move B's
    resynthesizer for one (V{_dd}, clock) context: [resynth behavior cs
    part] improves a module part of [behavior] under the inner
    constraints [cs] with {!Clib.improve_part} (move B off, the
    config's other family switches, [config.clib_effort]'s bounds and
    [config.engine]'s policy). Resynthesis is a pure function of its
    request (behavior, part, constraints): the nested trace is drawn
    with [Rng.derive] from [config.seed] and the label
    ["resynth/<behavior>"], never from the order of the requests. Each
    resynthesizer keeps a table from request to answer (part compared
    physically, constraints structurally), so a request repeated in
    the context returns its first answer, physically, without another
    nested run; a run that [token] interrupted is not kept. Two
    resynthesizers share no entry. When metrics are enabled, each call
    adds one to [moves.resynth.requests] and each nested run one to
    [moves.resynth.runs]. *)

val synthesize :
  ?events:Events.sink ->
  ?token:Budget.token ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?cache_dir:string ->
  Request.t ->
  (result, string) Stdlib.result
(** Run the sweep described by the request.

    [events] observes progress (default {!Events.null}). [token]
    supplies an externally created budget token — e.g. one shared with
    a signal handler for Ctrl-C cancellation; by default a fresh token
    is started from the request's budget. [checkpoint] names a file to
    snapshot after every finished context; with [resume] set, a
    compatible snapshot at that path seeds the sweep (a missing file is
    a cold start, so [--resume] can be passed unconditionally).
    [cache_dir] names a persistent cost-cache directory: the run's
    session is warm-started from it before the sweep ({!Events.payload.Cache_loaded})
    and snapshotted back after ({!Events.payload.Cache_saved}). A warm
    run is bit-identical to a cold one — disk entries, like shared
    in-memory entries, only change which computations run — and an
    unreadable or version-mismatched cache file is skipped with a
    warning, never an error.

    The request was validated when {!Request.make} built it. Returns
    [Error _] for an incompatible checkpoint, or when no feasible
    design was found before the sweep ended. An interrupted run with at least one feasible design still
    returns [Ok] — check {!result.completed}. Resumed runs converge to
    bit-identical results with uninterrupted ones because checkpoints
    only store fully-finished contexts. *)

val rescale_vdd : ?config:config -> result -> Hsyn_modlib.Voltage.t list -> result
(** Voltage-scale a finished design: keep the architecture, try lower
    supply voltages (rescheduling at each), and return the lowest-power
    feasible point — the paper's "area-optimized circuits …
    subsequently voltage-scaled for low power operation". Each
    (V{_dd}, clock) point is evaluated once, with {!Cost.evaluate}. *)
