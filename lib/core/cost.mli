(** Objective evaluation of design points.

    Wraps scheduling, the area model and the power estimator into the
    single cost oracle used by move gain computation. Infeasible
    designs (schedule misses the throughput constraint) are never
    preferred: their objective value is infinite. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched

type objective = Area | Power

val objective_of_string : string -> objective option
val objective_name : objective -> string

type eval = {
  area : float;  (** total area incl. controller *)
  power : float;  (** normalized power; [nan] when not computed *)
  energy_sample : float;  (** switched cap per sample; [nan] when not computed *)
  makespan : int;
  feasible : bool;
}

val evaluate :
  ?with_power:bool ->
  ?sched_cache:Sched.Cache.t ->
  Design.ctx ->
  Sched.constraints ->
  sampling_ns:float ->
  trace:int array list ->
  Design.t ->
  eval
(** Evaluate a design point. [with_power] defaults to true; pass false
    in area-only searches to skip the simulation. Exactly
    [power_stage] composed on [schedule_stage]. [?sched_cache] is
    forwarded to both stages. *)

type memo
(** What the candidates of one evaluation context share: the module
    areas of {!Hsyn_eval.Area.memo}, and the value streams per (graph,
    bound parts), module-part energies per (module, behavior,
    invocation stream) and module idle terms of
    {!Hsyn_eval.Power.memo}. The evaluation engine creates one per
    engine, for the engine's technology context and trace, passes it
    to both stages, and drops it with the engine. The stages called
    without it, and {!evaluate}, which takes none, stay uncached. *)

val memo : Design.ctx -> trace:int array list -> memo
(** An empty memo for one technology context and one trace. *)

val schedule_stage :
  ?sched_cache:Sched.Cache.t ->
  ?memo:memo ->
  Design.ctx ->
  Sched.constraints ->
  Design.t ->
  eval * Sched.schedule
(** The cheap stage: list scheduling plus the area model. [power] and
    [energy_sample] are [nan]; the eval equals [evaluate
    ~with_power:false]. The schedule is returned alongside so that
    {!power_stage} need not compute it again. [?sched_cache] is
    forwarded to {!Sched.schedule}, which takes the graph's prepared
    context from it, and to the area model's module profiles. [?memo]
    supplies the module areas. *)

val power_stage :
  ?sched_cache:Sched.Cache.t ->
  ?sched:Sched.schedule ->
  ?memo:memo ->
  Design.ctx ->
  Sched.constraints ->
  sampling_ns:float ->
  trace:int array list ->
  Design.t ->
  eval ->
  eval
(** The expensive stage: run the switched-capacitance trace simulation
    and fill [power]/[energy_sample] into a {!schedule_stage} result
    (identity on infeasible designs). [?sched] is the schedule
    {!schedule_stage} returned for the same design and constraints;
    without it the design is scheduled again. [?memo] supplies the
    streams and module-part energies; it must have been made for
    [ctx] and [trace]. *)

val objective_lower_bound :
  objective ->
  Design.ctx ->
  sampling_ns:float ->
  n_samples:int ->
  eval ->
  Design.t ->
  float
(** Lower bound on [objective_value obj (power_stage ... partial)]
    computable from the {!schedule_stage} result alone (via
    {!Hsyn_eval.Power.energy_floor} in power mode). The engine skips
    the trace simulation of any candidate whose bound already exceeds
    the best value seen in its batch. *)

val objective_value : objective -> eval -> float
(** The scalar being minimized: area, or power plus a small area
    tie-break (see implementation note); [infinity] if the design is
    infeasible or the required metric was not computed. *)
