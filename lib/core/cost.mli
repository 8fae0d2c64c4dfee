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
    areas and the last top-level steering count of
    {!Hsyn_eval.Area.memo}, and the value streams per (graph,
    bound parts), module-part energies per (module, behavior,
    invocation stream) and module idle terms of
    {!Hsyn_eval.Power.memo}. The evaluation engine creates one per
    engine, for the engine's technology context and trace, passes it
    to both stages, and drops it with the engine. The stages called
    without it, and {!evaluate}, which takes none, stay uncached. *)

val memo : Design.ctx -> trace:int array list -> memo
(** An empty memo for one technology context and one trace. *)

type area_bound
(** A lower bound on a design's area objective value, and the datapath
    area it was computed from. *)

val area_bound :
  ?sched_cache:Sched.Cache.t ->
  ?memo:memo ->
  Design.ctx ->
  Sched.constraints ->
  Design.t ->
  area_bound
(** Bound [objective_value Area (fst (schedule_stage ...))] before
    scheduling: the schedule-independent datapath area
    ({!Hsyn_eval.Area.datapath}, through [memo]) plus the controller at
    [max 1] of {!Sched.makespan_lower_bound} states, or [infinity],
    with no datapath computed, when that makespan bound exceeds the
    deadline. The area is monotone in the state count, and rounding
    keeps it so, which makes the bound exact: never above the value.
    @raise Invalid_argument as {!Sched.schedule} does. *)

val area_bound_value : area_bound -> float

val schedule_stage :
  ?sched_cache:Sched.Cache.t ->
  ?memo:memo ->
  ?bound:area_bound ->
  Design.ctx ->
  Sched.constraints ->
  Design.t ->
  eval * Sched.schedule
(** The cheap stage: list scheduling plus the area model. [power] and
    [energy_sample] are [nan]; the eval equals [evaluate
    ~with_power:false]. The schedule is returned alongside so that
    {!power_stage} need not compute it again. [?sched_cache] is
    forwarded to {!Sched.schedule} and to the area model, for module
    profiles. [?memo] supplies the module areas and the last steering
    count. [?bound], the design's {!area_bound}, supplies its datapath
    area, which is then not computed again. *)

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
