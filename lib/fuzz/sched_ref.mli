(** The reference scheduler: the original time-stepped kernel, which
    {!Hsyn_sched.Sched}'s event kernel replaced. At every cycle it fires
    the ready job of highest priority whose instance is free, the lowest
    job number first. Nothing in synthesis calls it; the [sched-diff]
    oracle and [test_sched_diff] compare {!Hsyn_sched.Sched.schedule}
    with it field by field. It shares nothing with the event kernel:
    it derives module profiles itself, memoized per call by module
    identity and behavior, and counts nothing in [Sched.stats]. *)

val schedule :
  Hsyn_rtl.Design.ctx -> Hsyn_sched.Sched.constraints -> Hsyn_rtl.Design.t -> Hsyn_sched.Sched.schedule
(** @raise Invalid_argument on an unbound operation. *)
