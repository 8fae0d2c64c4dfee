(** Behavior registry: functional-equivalence classes of DFGs.

    A {e behavior} is a named black-box interface (n inputs, m
    outputs). Each behavior has one or more {e variants} — DFGs the
    user declares functionally equivalent (the paper's "building
    blocks like dot-product, butterfly": several DFG descriptions of
    the same function, each with distinct advantages). Hierarchical
    [Call] nodes reference behaviors by name; which variant implements
    a given call is a synthesis decision (move A). *)

type t

val create : unit -> t

val register : t -> string -> Dfg.t -> unit
(** [register t behavior dfg] adds [dfg] as a variant of [behavior].
    All variants of a behavior must agree on input and output arity,
    and variant names (the DFG names) must be distinct within a
    behavior. Behaviors must be stateless (no [Delay]); the parser
    ([Text.parse_string]) refuses a stateful one, this function does
    not check it.
    @raise Invalid_argument on interface mismatch or duplicate name. *)

val variants : t -> string -> Dfg.t list
(** Variants in registration order.
    @raise Not_found for unknown behaviors. *)

val variant : t -> string -> string -> Dfg.t
(** [variant t behavior name] looks a variant up by DFG name.
    @raise Not_found if missing. *)

val default_variant : t -> string -> Dfg.t
(** First-registered variant.
    @raise Not_found for unknown behaviors. *)

val interface : t -> string -> int * int
(** [(n_inputs, n_outputs)] of a behavior.
    @raise Not_found for unknown behaviors. *)

val mem : t -> string -> bool
val behaviors : t -> string list
(** Registered behavior names, in first-registration order. *)

val check_calls : t -> Dfg.t -> (unit, string) result
(** Verify that every [Call] in the graph (recursively through called
    behaviors' variants) references a registered behavior with
    matching input/output arity, and that the call hierarchy is
    non-recursive. *)
