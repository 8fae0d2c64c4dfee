(** Behavioral simulation of bound designs.

    Evaluates a design's DFG on an input trace, producing the stream of
    every value in the graph — the raw material for switched-capacitance
    power estimation. Hierarchical nodes are evaluated through the RTL
    module implementation they are bound to (i.e. the variant the
    synthesizer actually selected), so a move of type A that swaps a
    functionally equivalent variant keeps the simulated function
    identical while changing internal activity.

    Top-level [Delay] nodes carry state across samples. Behaviors used
    inside RTL modules are stateless (delays at the top level — see
    DESIGN.md), and the contract is enforced where programs come in:
    [Text.parse_string] refuses a [delay] in a [behavior] block with a
    typed parse error. A registry built in code can still hold one; its
    delay restarts from its initial value at every invocation here,
    while flattening keeps one delay per call site.

    An invocation walks the tables {!Dfg.Builder.finish} built once
    for its graph ({!Dfg.index}: the topological order, each node's
    operand values, the value numbering) over one [int] array of
    values; a call looks its part up from the binding when it runs.
    Nothing is compiled, and nothing is cached across calls. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg

val run : Design.t -> int array list -> int array array
(** [run design invocations] evaluates one design invocation per input
    vector, returning [streams] with [streams.(s).(v)] the value with
    id [v] (see {!Design.value_index}) at sample [s]. Delay state
    persists across the samples of the list.
    @raise Invalid_argument if an input vector's width differs from
    the DFG's input arity, if a call's argument count differs from
    its part's, or if a call is bound to a simple unit. *)

val outputs : Design.t -> int array array -> int array list
(** Extract the per-sample primary-output vectors from [run]'s
    result. *)

val run_flat : Dfg.t -> int array list -> int array list
(** Reference semantics: evaluate a flat (call-free) DFG directly,
    returning output vectors. Used by tests to check that synthesized
    designs compute the same function as the flattened behavior. *)
