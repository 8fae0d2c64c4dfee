(** The operation alphabet of behavioral descriptions.

    The paper targets data-dominated DSP/image behaviors, so the
    alphabet is arithmetic: adds, subtracts, multiplies, shifts,
    comparisons. Each operation has a fixed arity and a reference
    evaluation semantics on fixed-width words (used by the behavioral
    simulator that drives power estimation). *)

type t =
  | Add
  | Sub
  | Mult
  | Lsh  (** left shift by a constant-like second operand *)
  | Rsh  (** arithmetic right shift *)
  | Neg  (** unary two's-complement negation *)
  | Abs  (** unary absolute value *)
  | Min
  | Max
  | Lt   (** signed less-than, producing 0/1 *)

val arity : t -> int
(** Number of input operands (1 or 2). *)

val name : t -> string
(** Lower-case mnemonic, also used by the textual DFG format. *)

val of_name : string -> t option
(** Inverse of {!name}. *)

val all : t list
(** Every operation, in declaration order. *)

val eval : t -> int list -> int
(** Reference semantics on [Bits.word_width]-bit two's-complement
    words. The operand list length must equal [arity].

    Corner cases are total and deliberately defined, because the
    rewrite engine's legality checks, the behavioral simulator, and
    the power model's activity estimation must agree bit-for-bit:

    - [Lsh]/[Rsh] take their effective shift distance from
      {!Hsyn_util.Bits.shift_amount}: the low 4 bits of the truncated
      second operand, so amounts >= 16 and "negative" amounts wrap
      (16 shifts by 0, -1 shifts by 15). [Rsh] is arithmetic
      (sign-propagating).
    - [Neg] and [Abs] of the most negative word (0x8000 = -32768)
      both yield 0x8000 again under two's-complement wrap; [Abs] can
      therefore return a negative value, exactly as in hardware.
    - [Add]/[Sub]/[Mult] wrap modulo 2^16.

    @raise Invalid_argument on arity mismatch. *)

val eval1 : t -> int -> int
(** [eval1 op a] is [eval op [ a ]] without building the list — the
    form the simulator calls.
    @raise Invalid_argument if [op] is not unary. *)

val eval2 : t -> int -> int -> int
(** [eval2 op a b] is [eval op [ a; b ]] without building the list.
    @raise Invalid_argument if [op] is not binary. *)

val commutative : t -> bool
(** Whether swapping the two operands preserves the result (used by
    binding to canonicalize operand order). *)

val pp : Format.formatter -> t -> unit
