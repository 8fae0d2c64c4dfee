(** RTL design points.

    A design implements a specific DFG on a set of datapath resources:
    functional-unit {e instances} (simple library units or nested
    {e RTL modules}), and registers. The binding maps each operation
    or hierarchical node to the instance executing it and each value
    to the register holding it. Designs are immutable; moves produce
    updated copies (arrays are copied on write), which keeps the
    variable-depth improvement pass trivially revertible.

    An RTL module packages one or more designs over a {e shared}
    resource set — more than one when RTL embedding (move C on complex
    modules) has merged several behaviors onto the same datapath, as
    in the paper's Figure 3. By construction every part of a module
    carries the identical [insts] array and register count. *)

module Op = Hsyn_dfg.Op
module Dfg = Hsyn_dfg.Dfg
module Fu = Hsyn_modlib.Fu

type ctx = {
  lib : Hsyn_modlib.Library.t;
  vdd : Hsyn_modlib.Voltage.t;
  clk_ns : float;
}
(** The technology context fixed by the outer V{_dd} × clock loops. *)

type inst_kind =
  | Simple of Fu.t  (** an instance of a library functional unit *)
  | Module of rtl_module  (** an instance of a complex RTL module *)

and rtl_module = {
  rm_name : string;  (** instance-independent module name *)
  parts : (string * t) list;
      (** behavior name → inner design implementing it; all parts
          share one resource set *)
}

and t = {
  dfg : Dfg.t;  (** the behavior this design implements *)
  insts : inst_kind array;  (** datapath resources *)
  node_inst : int array;
      (** node id → instance index executing it; -1 for nodes that
          need no functional resource (inputs, outputs, constants,
          delays) *)
  value_reg : int array;
      (** value id (see {!value_index}) → register number, or -1 for
          hardwired values (constants) *)
  n_regs : int;  (** registers are numbered [0 .. n_regs-1] *)
}

(** {1 Value numbering}

    Read off the graph's {!Dfg.index}, which also lists each value's
    readers. *)

val n_values : Dfg.t -> int
(** Total output-port count over all nodes. *)

val value_index : Dfg.t -> Dfg.port -> int
(** Dense index of a value; ports of one node are consecutive. *)

val value_of_index : Dfg.t -> int -> Dfg.port
(** Inverse of {!value_index}.
    @raise Invalid_argument if the index is out of range. *)

val fingerprint : t -> int64
(** Structural 64-bit FNV-1a fingerprint of the design — the DFG, the
    instance types (recursively through module parts), the node and
    register bindings. Two structurally equal designs have equal
    fingerprints; the evaluation engine uses this as its cost-cache
    key (verifying candidates against cached designs with structural
    equality, so a collision can never yield a wrong evaluation). The
    chain starts from the top-level graph's [index.hash], so the graph
    is not hashed again; module parts hash their graphs in the
    chain. *)

val equal : t -> t -> bool
(** Structural equality, the same relation as polymorphic [=] on
    designs whose units carry no NaN parameter. It returns early on
    physically shared graphs, instance arrays, units, modules and
    parts, where [=] would walk them. *)

(** {1 Module queries} *)

val module_part : rtl_module -> string -> t
(** The inner design of a module for a behavior.
    @raise Not_found if the module does not implement it. *)

val module_behaviors : rtl_module -> string list

(** {1 Design queries} *)

val nodes_on : t -> int -> int list
(** Ascending ids of the DFG nodes bound to an instance. *)

val values_in_reg : t -> int -> int list
(** Ascending value ids stored in a register. *)

val nodes_by_inst : t -> int list array
(** {!nodes_on} for every instance at once, built in one sweep over
    the bindings. *)

val values_by_reg : t -> int list array
(** {!values_in_reg} for every register [0 .. n_regs-1] at once, built
    in one sweep. *)

val inst_used : t -> int -> bool

val reg_count_used : t list -> int
(** Number of registers that at least one value of the given designs
    is bound to: the parts of one module share a register file, so pass
    them all, or one design alone. *)

val validate : ctx -> t -> (unit, string) result
(** Check binding sanity: every operation node is bound to a simple
    instance supporting it (chain instances' nodes must form one
    linear chain of the right length), every call node to a module
    instance implementing its behavior, array lengths agree, register
    ids in range. Recurses into module parts. *)

(** {1 Functional updates} *)

val with_inst : t -> int -> inst_kind -> t
(** Replace the resource type of an instance. *)

val with_binding : t -> int -> int -> t
(** [with_binding d node inst] rebinds one node. *)

val with_bindings : t -> int list -> int -> t
(** [with_bindings d nodes inst] rebinds every node of [nodes] onto
    [inst], copying the binding array once. *)

val with_value_reg : t -> int -> int -> t
(** [with_value_reg d value reg] moves a value to another register
    (growing [n_regs] if needed). *)

val add_inst : t -> inst_kind -> t * int
(** Append a fresh instance; returns its index. *)

val fresh_reg : t -> t * int
(** Allocate a new register number. *)

val compact : t -> t
(** Drop instances with no bound nodes and registers with no bound
    values, renumbering the survivors (bindings are remapped). *)

val pp_inst_kind : Format.formatter -> inst_kind -> unit
val pp : Format.formatter -> t -> unit
(** Structural dump: instances with their bound nodes, register map. *)
