(** A 64-bit FNV-1a hash chain kept in an 8-byte buffer.

    The structural fingerprints of graphs and designs mix their fields
    into one chain, one value at a time. The chain's state lives in a
    buffer rather than in an [int64] passed between functions, so that
    no mixing step boxes: a chain allocates its buffer and, when read
    into a boxed result, that result, and nothing per mixed value. *)

type t = Bytes.t
(** A chain's state, at byte offset 0. *)

val offset : int64
(** The FNV-1a offset basis, where every chain starts. *)

val prime : int64
(** One step of the chain mixes [x] into [h] as [(h lxor x) * prime].
    Hashing code runs the step in a local [[@inline]] function between
    a {!load} and a {!store}: a call to another module is not inlined
    when modules compile with [-opaque], as in dune's default profile,
    and such calls made a fingerprint half as slow again. *)

external load : t -> int -> int64 = "%caml_bytes_get64u"
(** [load st 0] is the chain's value now. *)

external store : t -> int -> int64 -> unit = "%caml_bytes_set64u"
(** [store st 0 h] continues the chain from [h]. *)

val create : unit -> t
(** A fresh chain at {!offset}. *)

val string : t -> string -> unit
(** Mix in a string's length, then each of its bytes. *)

val ints : t -> int array -> unit
(** Mix in each element, in order (not the length). *)
