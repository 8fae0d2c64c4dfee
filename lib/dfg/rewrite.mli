(** Algebraic datapath rewriting (move family E).

    Pure, semantics-preserving DFG-to-DFG transforms, in the spirit of
    datapath rewriting work (Coward et al.): strength reduction,
    associativity re-balancing, and common-subexpression extraction.
    Each candidate is a complete rebuilt graph; legality rests on the
    wrap semantics documented in {!Op.eval} and
    {!Hsyn_util.Bits.shift_amount}, and the move layer additionally
    verifies every candidate bitwise-equivalent to the original design
    through the behavioral simulator before it is ever offered to the
    engine, so an unsound rewrite can be rejected but never
    committed. *)

val kinds : string list
(** The rewrite-kind universe, in sweep order: ["sr"] (strength
    reduction), ["rebal"] (chain re-balancing), ["cse"]
    (common-subexpression extraction). Single source of truth for
    per-kind attribution in pass statistics and the bench report. *)

val kind_of_description : string -> string
(** Map a candidate description (["<kind>:<site>"]) back to its kind;
    ["other"] for descriptions minted elsewhere. *)

val rebuild :
  Dfg.t ->
  ?skip:(int -> bool) ->
  ?subst:(Dfg.port -> Dfg.port option) ->
  ?custom:(int -> (Dfg.Builder.b -> (Dfg.port -> Dfg.port) -> Dfg.node -> Dfg.port) option) ->
  unit ->
  Dfg.t option
(** The graph surgery every rewrite (and the fuzz shrinker) is made
    of: re-run a graph through {!Dfg.Builder} in node order, leaving
    out the nodes [skip] holds for and reading [q] wherever [subst]
    maps a port to [Some q] (a substitution must lead to an earlier
    node, never back to itself). [custom i = Some emit] emits node
    [i]'s single output as [emit b resolve node] instead, [resolve]
    mapping an original port to its rebuilt counterpart. Delay feeds
    are connected after the walk, so a delay may read a later node.
    [None] when a port resolves to a node left out or not yet rebuilt,
    or when {!Dfg.Builder.finish} refuses the result (say, a
    combinational cycle). *)

val strength_reduce : Dfg.t -> (string * Dfg.t) list
(** Per applicable site: multiplication by a constant wrapping to
    [2^k] becomes [Lsh] by [k] (sound for every [k] in 0..15 modulo
    2{^16}, including [c = 0x8000]); multiplication by 0 or 1
    collapses to the constant or the variable operand; a shift whose
    constant amount wraps to 0 is erased; an out-of-range or negative
    constant shift amount is canonicalized to
    {!Hsyn_util.Bits.shift_amount} of itself (the symmetric
    [Lsh]/[Rsh] case). *)

val rebalance : Dfg.t -> (string * Dfg.t) list
(** Re-parenthesize maximal single-consumer chains of [Add], [Mult],
    [Min], [Max] (all associative on two's-complement words — [Add]
    and [Mult] modulo 2{^16}, [Min]/[Max] as signed lattice
    operations) into balanced trees, preserving leaf order. The
    operation count is unchanged; the critical path through the chain
    shortens from the chain length to its ceiling log. *)

val cse : Dfg.t -> (string * Dfg.t) list
(** Drop an operation node that is structurally identical to an
    earlier one (same op, same operand ports, or swapped operands when
    the op commutes) and route its consumers to the earlier node. *)

val candidates : Dfg.t -> (string * Dfg.t) list
(** All rewrite candidates of all kinds, each tagged with a
    ["<kind>:<site>"] description. Every returned graph passed
    [Builder.finish] validation; candidates whose rebuild would be
    malformed are silently dropped. *)
