(** The move families of the iterative-improvement engine.

    - {b A — module selection}: replace a simple unit instance by a
      compatible library alternative, or a complex module instance by
      a different library implementation of its behavior (possibly a
      different, functionally equivalent DFG variant).
    - {b B — resynthesis}: derive the environment of a complex module
      instance (operand arrival times from the current schedule,
      output deadlines from ALAP slack), and re-synthesize its behavior
      under those relaxed constraints. Resynthesis is a pure function
      of its request (behavior, part, constraints), so a repeated
      request is answered from the resynthesizer's table; every answer
      is wrapped in a fresh module record named by the env's counter.
    - {b C — merging}: map two simple instances onto one (resource
      sharing), fuse dependent additions onto a chained adder, merge
      two complex modules via RTL embedding, or globally re-allocate
      registers by lifetime (left-edge).
    - {b D — splitting}: split a multiplexed instance (simple or
      complex) into two, opening power-optimization freedom.
    - {b E — rewriting}: algebraic datapath rewriting of the
      behavior's own DFG ({!Hsyn_dfg.Rewrite}): strength reduction,
      chain re-balancing, common-subexpression extraction. Every
      candidate is rebound onto the current resources and must
      simulate bitwise-identically to the original design on the
      environment trace before it is offered to the engine.

    Every candidate is validated by rescheduling, and its gain is the
    decrease of the objective (negative gains are legal — the
    variable-depth pass may accept them).

    Candidates are produced lazily and evaluated through the
    environment's {!Engine.t} — memoized, staged and batched over the
    worker pool — so [max_candidates] bounds generation work (nested
    resynthesis, RTL embedding) as well as evaluation. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Registry = Hsyn_dfg.Registry

type kind = Select | Resynthesize | Merge | Split | Rewrite

val all_kinds : (kind * string * string) list
(** The move-family universe — [(kind, display name, one-line
    description)] — in sweep order. The single source of truth behind
    {!kind_name}, pass statistics and user-facing family tables. *)

val kind_name : kind -> string
(** Display name of a family, e.g. ["A:select"], ["E:rewrite"] —
    derived from {!all_kinds}. *)

type t = {
  kind : kind;
  description : string;
  candidate : Design.t;
  eval : Cost.eval;
  gain : float;  (** objective(current) − objective(candidate) *)
}

type rewrites
(** Family E's rewrites of one graph, with the indexes that rebinding
    them onto a design reads and, for a call-free graph, the gate's
    verdict on each rewrite once it has been simulated. *)

(** A move-loop environment: one improvement run's engine, library and
    move-family switches, built by {!make_env}. *)
type env = private {
  engine : Engine.t;
      (** the evaluation engine all cost queries go through; it also
          holds the run's evaluation context (technology context,
          constraints, trace, objective), which the generators read *)
  registry : Registry.t;
  complexes : string -> Design.rtl_module list;
  resynth : (string -> Sched.constraints -> Design.t -> Design.t) option;
      (** move B's bounded inner optimizer, [resynth behavior cs part],
          in the engine's context and objective; [None] disables B.
          The one in production ({!Synthesize.make_resynth}) is a pure
          function of its request (behavior, part, constraints) and
          answers a repeated request from its table. *)
  max_candidates : int;  (** cap on evaluated candidates per family *)
  allow_embed : bool;  (** enable complex-module merging via RTL embedding *)
  allow_split : bool;  (** enable move family D *)
  allow_rewrite : bool;  (** enable move family E *)
  mutable fresh_names : int;  (** counter for generated module names *)
  mutable rewrites : rewrites option;
      (** family E's memo: the rewrites of the last graph it was asked
          for. Rewriting is a pure function of the graph, and a context
          meets one graph until it commits a rewrite, so this computes
          the rewrites once per graph and keeps the rewritten graphs
          physically shared across moves. On a call-free graph it also
          keeps the gate's verdicts, so each rewrite is simulated once
          per graph. It lives in the env, so it ends with the run. *)
}

val make_env :
  ?resynth:(string -> Sched.constraints -> Design.t -> Design.t) ->
  Engine.t ->
  registry:Registry.t ->
  complexes:(string -> Design.rtl_module list) ->
  max_candidates:int ->
  allow_embed:bool ->
  allow_split:bool ->
  allow_rewrite:bool ->
  env
(** The one constructor of {!env}. Without [resynth] move B is off.
    The name counter starts at 0 and the rewrite memo empty. *)

val best_select_or_resynth : env -> float -> Design.t -> t option
(** Best move from A ∪ B against the given current objective value
    (statement 7 of Figure 4). *)

val best_merge : env -> float -> Design.t -> t option
(** Best resource-sharing move (statement 8). *)

val best_split : env -> float -> Design.t -> t option
(** Best resource-splitting move (statement 10). *)

val rewrite_candidates : env -> Design.t -> ((kind * string) * Design.t) Seq.t
(** Family E's candidates for a design, before evaluation: each
    rewrite of its graph (from [env.rewrites] when that holds the
    design's graph physically) rebound onto the design's resources,
    kept when it validates and simulates bitwise-identically to the
    design on the engine's trace. Rebinding runs first and the gate second,
    for every rewrite on every call. The gate simulates a rewrite of a
    call-free graph once per [env.rewrites] entry and then reuses its
    verdict; a graph with calls is simulated on every call, since its
    outputs depend on the parts bound to its calls. Each simulation
    adds one to the [moves.rewrite.simulated] counter when metrics are
    enabled. *)

val best_rewrite : env -> float -> Design.t -> t option
(** Best algebraic rewriting move (family E). [None] when
    [env.allow_rewrite] is false or no candidate survives rebinding,
    validation and the mandatory simulation-equivalence gate. *)
