(** Deterministic pseudo-random number generation.

    All randomness in the synthesis system (input traces, tie-breaking)
    flows through this module so that experiments and tests are exactly
    reproducible. The generator is splitmix64, which is fast, has a
    64-bit state, and passes BigCrush. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. Equal
    seeds yield identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bits : t -> int -> int
(** [bits t n] returns [n] random bits as a non-negative int;
    [0 <= n <= 62]. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a list -> 'a
(** Uniformly random element of a non-empty list.
    @raise Invalid_argument on the empty list. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    the parent's subsequent outputs. *)

val derive : t -> string -> t
(** [derive t label] is a generator keyed by [label]: the parent's
    current state with a fixed 64-bit FNV-1a hash of [label] mixed in.
    It does not advance [t], so the stream depends only on [t]'s state
    and [label], not on which other labels were derived from [t]
    before. Labels whose hashes differ give distinct streams. *)
