(** Anytime-synthesis budgets and cooperative cancellation.

    A {!t} is an immutable resource envelope for one synthesis run: an
    optional wall-clock deadline plus an optional quota on finished
    (V{_dd}, clock) contexts. A {!token} is the live run state started
    from it — it carries the clock, the count of finished contexts, and
    a domain-safe cancellation flag.

    The effort of a context is bounded by the synthesis config (moves
    per pass, passes per context); the budget bounds the run. Its two
    kinds of limit are polled in different places on purpose:

    - the {e context quota} ({!exhausted}) is checked only between
      contexts, so a quota-truncated run is deterministic — it visits
      exactly the prefix of contexts an unbudgeted run would visit.
    - the {e deadline} and {e cancellation} ({!interrupted}, {!check})
      are safe to poll anywhere (at pass and move boundaries, inside
      candidate batches, nested resynthesis, library construction)
      because aborting there only discards work that was still
      tentative.

    The synthesis driver always returns the best feasible design found
    before the budget fired. *)

type reason = Deadline | Cancelled | Context_quota

val reason_name : reason -> string

exception Interrupted of reason
(** Raised by {!check} (and by the evaluation engine's batch paths)
    when a hard interruption — deadline or cancellation — fires. *)

type t = {
  deadline_s : float option;  (** wall-clock limit for the whole run *)
  max_contexts : int option;  (** (V_dd, clock) contexts finished *)
}

val unlimited : t

val make : ?deadline_s:float -> ?max_contexts:int -> unit -> (t, string) result
(** Validated constructor: every given bound must be positive. *)

val is_unlimited : t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Run tokens} *)

type token

val start : t -> token
(** Start the clock on a fresh token. *)

val cancel : token -> unit
(** Request cooperative cancellation. Domain- and signal-safe; may be
    called from another domain or from a signal handler. Idempotent. *)

val cancelled : token -> bool
val elapsed_s : token -> float

val note_context : token -> unit
(** Record one {e finished} context. Charging on completion (not on
    start) means the context quota admits a context and then lets it
    run to its natural end — it never interrupts the context it just
    admitted. *)

val exhausted : token -> reason option
(** Deadline, cancellation, or the context quota spent — poll between
    contexts. The quota check compares finished contexts against the
    spec, so it is deterministic across runs and pool sizes. *)

val interrupted : token -> reason option
(** Deadline or cancellation only — safe to poll anywhere. *)

val check : token -> unit
(** @raise Interrupted when {!interrupted} is [Some _]. *)
