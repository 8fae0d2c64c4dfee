(** Textual exchange format for hierarchical DFGs.

    H-SYN reads behavioral descriptions from text. The format is
    line-oriented; [#] starts a comment. A file is a sequence of
    blocks:

    {v
    behavior <behavior-name> variant <dfg-name>
      ...body...
    end

    dfg <dfg-name>
      ...body...
    end
    v}

    Body statements (one per line):

    {v
    input  <label>
    const  <label> <int>
    op     <label> <op-name> <src> [<src>]
    delay  <label> <src> [init <int>]
    call   <label> <behavior> <n-out> <src> ...
    output <label> <src>
    v}

    A [<src>] is a node label, or [label.k] for output [k] of a call.
    Statements must appear in dependence order except that a [delay]'s
    source may be defined later in the same block (recurrences).

    [behavior] blocks register their graph as a variant of the named
    behavior; [dfg] blocks are standalone top-level graphs. Behaviors
    are stateless: a [delay] is allowed only in a [dfg] block. *)

type program = { registry : Registry.t; graphs : Dfg.t list }
(** Parsed file: registered behavior variants plus top-level graphs in
    file order. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse_string : string -> program
(** @raise Parse_error on malformed input (a [label.k] its source
    lacks, or a call output count below 1 or above the program's
    statement count, at that statement's line), on a [delay] inside a
    [behavior] block (at the delay's line, naming the behavior and the
    delay), and on a variant the registry refuses (an interface that
    differs from the behavior's first variant, or a variant name used
    twice in one behavior; at the block's header line). *)

val parse_file : string -> program
(** {!parse_string} on a file's contents.
    @raise Sys_error if the file cannot be read. *)

val select_graph : ?name:string -> program -> (Dfg.t, string) result
(** Pick one top-level graph of a parsed program. Without [name] the
    program must contain exactly one [dfg] block — several is an error
    listing the available names, never a silent pick of the first.
    With [name], the graph of that name (the error again lists what is
    available). *)

val print_dfg : Buffer.t -> ?behavior:string -> Dfg.t -> unit
(** Append one block in the format above; [behavior] selects a
    [behavior] block header instead of [dfg]. *)

val to_string : program -> string
(** Render a whole program; [parse_string] of the result reproduces
    it. *)

val to_dot : Dfg.t -> string
(** Graphviz rendering (for documentation; not parsed back). *)
