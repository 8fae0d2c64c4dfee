(** Mutable binary min-heap of plain [int]s over one growable array.

    Push and pop allocate nothing (beyond growing the array when it is
    full), so the scheduler's event kernel runs its ready, pending and
    release queues on it. A caller that needs a priority with a payload
    packs both into one int, [key * n + payload] with
    [0 <= payload < n]; equal ints are indistinguishable, so there is
    no tie order to speak of. *)

type t

val create : int -> t
(** [create n] is an empty heap with room for [n] elements before it
    grows. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> int -> unit

val top : t -> int
(** The minimum, left in place.
    @raise Invalid_argument if the heap is empty. *)

val pop : t -> int
(** Remove and return the minimum.
    @raise Invalid_argument if the heap is empty. *)

val clear : t -> unit
(** Remove all elements, keeping the array. *)
