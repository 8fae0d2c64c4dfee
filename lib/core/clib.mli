(** The complex-module library (the paper's Figure 2).

    For every behavior reachable from a top-level DFG, and every
    registered DFG variant of it, a small set of ready-made RTL
    modules is synthesized up front in the current technology context:
    a fully parallel (fastest) module, an area-optimized module under
    the tightest feasible deadline, and a power-optimized module under
    a relaxed deadline. Moves of type A then select among these (and
    across variants — the user-declared functional equivalences), and
    move B resynthesizes them further against their environment. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Sched = Hsyn_sched.Sched

type t

type effort = {
  max_moves : int;
  max_passes : int;
  max_candidates : int;
  engine : Engine.policy;  (** evaluation-engine policy for library synthesis *)
}

val default_effort : effort

val build :
  ?session:Session.t ->
  ?token:Budget.token ->
  Design.ctx ->
  Registry.t ->
  rng:Hsyn_util.Rng.t ->
  trace_length:int ->
  effort:effort ->
  top:Dfg.t ->
  t
(** Synthesize library modules for every behavior reachable from
    [top], deepest behaviors first (so shallower modules can
    instantiate deeper ones). The nested per-variant engines borrow
    their caches from [session] when given (each creates a private
    session otherwise). With [token], construction polls its
    deadline and cancellation and raises {!Budget.Interrupted}; the
    caller abandons the context it was preparing. *)

val improve_part :
  ?session:Session.t ->
  ?token:Budget.token ->
  Design.ctx ->
  Registry.t ->
  complexes:(string -> Design.rtl_module list) ->
  effort:effort ->
  trace:int array list ->
  allow_embed:bool ->
  allow_split:bool ->
  allow_rewrite:bool ->
  Sched.constraints ->
  Cost.objective ->
  Design.t ->
  Design.t * Pass.stats
(** One nested improvement run (Figure 4's loop below the top level):
    improve a module part under the given constraints and objective,
    with move B off. The sampling period is the constraints' deadline
    in clock periods. It creates its own engine (policy
    [effort.engine], borrowing from [session] and polling [token]) and
    runs {!Pass.improve} at [effort]'s move and pass bounds with
    [effort.max_candidates] per family, returning its result. Library
    construction calls it for each variant's area- and power-optimized
    modules, and move B for each resynthesis it has not answered
    before in the context. *)

val lookup : t -> string -> Design.rtl_module list
(** Modules implementing a behavior; [[]] when unknown. *)

val behaviors : t -> string list

val pp : Design.ctx -> Format.formatter -> t -> unit
(** Figure-2-style listing: every module with its behavior, resource
    inventory, area and profile. *)
