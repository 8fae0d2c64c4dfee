(** INITIAL_SOLUTION (Figure 4, statement 2).

    Maps each simple node to its own instance of the fastest library
    unit for its operation, each hierarchical node to its own RTL
    module instance (taken from the complex-module library when one
    implements the behavior, otherwise built recursively in the same
    manner), and each value to its own register — a completely
    parallel architecture, subsequently refined by moves. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry

val build :
  ?sched_cache:Hsyn_sched.Sched.Cache.t ->
  Design.ctx ->
  complexes:(string -> Design.rtl_module list) ->
  Registry.t ->
  Dfg.t ->
  Design.t
(** [complexes] returns the library RTL modules implementing a
    behavior (fastest is chosen); it may return [[]]. The module
    profiles consulted for that choice are memoized in [sched_cache]
    when given (each lookup makes a fresh cache otherwise).
    @raise Not_found if an operation has no supporting library unit or
    a called behavior is unregistered. *)
