(** Hierarchical data flow graphs.

    A DFG is a directed graph whose nodes are primary inputs/outputs,
    constants, unit-sample delays (z{^-1} state elements), simple
    arithmetic operations, or {e hierarchical nodes} ([Call]) that
    reference a named behavior implemented by its own DFG (arbitrarily
    deep nesting, as in the paper). Edges connect a source node's
    output port to a destination node's input port.

    Graphs may be cyclic, but every cycle must pass through a [Delay]
    node — the standard well-formedness condition for DSP recurrences.
    For intra-sample scheduling purposes a [Delay]'s output is available
    at time 0, so the scheduling dependence relation (edges out of
    delays removed) is acyclic. *)

type port = { node : int; out : int }
(** A value source: output [out] of node [node]. Simple nodes have a
    single output (port 0); [Call] nodes may have several. *)

type kind =
  | Input  (** primary input; its position in {!field-inputs} is its port index *)
  | Output  (** primary output; consumes exactly one value *)
  | Const of int  (** compile-time constant word *)
  | Delay of int  (** z{^-1} element with the given initial state *)
  | Op of Op.t  (** simple arithmetic operation *)
  | Call of string  (** hierarchical node referencing a named behavior *)

type node = {
  kind : kind;
  label : string;  (** human-readable name, unique within the graph *)
  ins : port array;  (** [ins.(p)] is the source feeding input port [p] *)
  n_out : int;  (** number of output ports *)
}

(** The tables every consumer of a graph reads, built once by
    {!Builder.finish}: value numbering, each node's input values, each
    value's readers, the topological order and the lists the scheduler
    walks. Values are the output ports of all nodes, numbered densely
    in node order, the ports of one node consecutively.

    Per-node and per-value lists are CSR slices: [x_off] has one entry
    more than there are nodes (or values), and entry [i]'s slice of the
    data array is [x_off.(i) .. x_off.(i + 1) - 1]. The arrays are
    shared by every reader of the graph: do not mutate them. *)
type index = private {
  value_off : int array;
      (** per node, its first value; the last entry is the number of
          values *)
  value_node : int array;  (** per value, its producing node *)
  order : int array;  (** the nodes in {!topo_order} *)
  in_off : int array;  (** per node, its slice of [in_val] *)
  in_val : int array;  (** the value read by each input port, node then port order *)
  reader_off : int array;  (** per value, its slice of [readers] and [reader_at_avail] *)
  readers : int array;  (** the node of each reading port, ascending within a slice *)
  reader_at_avail : bool array;
      (** per reading port: an [Output] or [Delay], which reads the value
          when it becomes available rather than when a job starts *)
  topo_values : int array;
      (** every value, ordered by its producer's position in [order],
          then by value *)
  exec_nodes : int array;  (** [Op] and [Call] nodes, ascending: each must be bound *)
  fixed_values : int array;  (** [Const] and [Delay] values, ascending: available at 0 *)
  sink_values : int array;  (** the value each [Output] and [Delay] node reads, by node *)
  output_values : int array;  (** the value each {!field-outputs} node reads, in order *)
  hash : int64;
      (** the FNV-1a chain of {!hash_into} from {!Hsyn_util.Fnv.offset}:
          where a design's fingerprint starts *)
}

type t = private {
  name : string;
  nodes : node array;
  inputs : int array;  (** ids of [Input] nodes, in primary-input order *)
  outputs : int array;  (** ids of [Output] nodes, in primary-output order *)
  index : index;  (** derived from the four fields above *)
}

(** Incremental construction. Nodes must be created before they are
    referenced except through {!Builder.delay_feed}, which closes
    recurrence cycles. *)
module Builder : sig
  type b

  val create : string -> b
  (** Begin building a graph with the given name. *)

  val input : b -> string -> port
  (** Append a primary input named as given. *)

  val const : b -> ?label:string -> int -> port
  (** Append a constant node. *)

  val op : b -> ?label:string -> Op.t -> port list -> port
  (** Append a simple operation; the operand list length must equal the
      operation's arity. *)

  val call : b -> ?label:string -> behavior:string -> n_out:int -> port list -> port array
  (** Append a hierarchical node referencing [behavior], with the given
      operand list and [n_out] outputs. Returns the output ports. *)

  val delay : b -> ?label:string -> ?init:int -> port -> port
  (** Append a delay node fed by the given source. *)

  val delay_feed : b -> ?label:string -> ?init:int -> unit -> port * (port -> unit)
  (** Create a delay whose input will be connected later — the idiom
      for recurrences: [let y1, feed = delay_feed b () in ... feed y].
      The returned closure must be called exactly once before
      {!finish}. *)

  val output : b -> ?label:string -> port -> unit
  (** Append a primary output consuming the given source. *)

  val finish : b -> t
  (** Freeze and validate the graph, and build its {!index}: the only
      way to make a [t], so every graph is valid and indexed.
      @raise Invalid_argument if the graph is malformed (see
      {!validate}) or has a cycle that no delay breaks. *)
end

val validate : t -> (unit, string) result
(** Check structural sanity: port references in range, operation
    arities respected, output nodes produce nothing, node labels
    unique. {!Builder.finish} checks the same and refuses cycles that
    no delay breaks, so every graph it returns passes. *)

val n_out : t -> int -> int
(** Number of output ports of a node. *)

val topo_order : t -> int array
(** Nodes in a scheduling-dependence topological order (delay outputs
    treated as available at time 0): Kahn's order, ready nodes first
    by id, and the nodes each step frees in ascending id. It is
    [index.order], computed once by {!Builder.finish}. *)

val hash_into : Hsyn_util.Fnv.t -> t -> unit
(** Mix the graph's name and nodes (kind, outputs, input ports) into
    a chain. From {!Hsyn_util.Fnv.offset} it gives [index.hash]. *)

val n_operations : t -> int
(** Number of [Op] nodes. *)

val n_calls : t -> int
(** Number of [Call] nodes. *)

val called_behaviors : t -> string list
(** Distinct behavior names referenced by [Call] nodes, in first-use
    order (non-recursive: only this graph's own calls). *)

val op_histogram : t -> (Op.t * int) list
(** Count of each operation kind present, in {!Op.all} order. *)

val equal : t -> t -> bool
(** Structural equality (names included); the index is derived, so
    it is not compared. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: name, node/op/call counts. *)
