type program = { registry : Registry.t; graphs : Dfg.t list }

exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun msg -> raise (Parse_error (line, msg))) fmt

(* ------------------------------------------------------------------ *)
(* Parsing *)

type stmt =
  | S_input of string
  | S_const of string * int
  | S_op of string * Op.t * string list
  | S_delay of string * string * int
  | S_call of string * string * int * string list
  | S_output of string * string

type block = {
  header : [ `Dfg of string | `Behavior of string * string ];
  line : int;  (* of the header *)
  body : (int * stmt) list;
}

let tokenize_line line =
  let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
  (* '\r' is whitespace too: CRLF files split on '\n' leave a trailing
     '\r' on every line, which must not stick to the last token *)
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (( <> ) "")

let parse_int lineno s =
  match int_of_string_opt s with Some v -> v | None -> fail lineno "expected integer, got %S" s

let parse_stmt lineno tokens =
  match tokens with
  | [ "input"; label ] -> S_input label
  | [ "const"; label; v ] -> S_const (label, parse_int lineno v)
  | "op" :: label :: opname :: srcs -> (
      match Op.of_name opname with
      | None -> fail lineno "unknown operation %S" opname
      | Some op ->
          if List.length srcs <> Op.arity op then fail lineno "op %s expects %d operands" opname (Op.arity op);
          S_op (label, op, srcs))
  | [ "delay"; label; src ] -> S_delay (label, src, 0)
  | [ "delay"; label; src; "init"; v ] -> S_delay (label, src, parse_int lineno v)
  | "call" :: label :: behavior :: n_out :: srcs -> S_call (label, behavior, parse_int lineno n_out, srcs)
  | [ "output"; label; src ] -> S_output (label, src)
  | tok :: _ -> fail lineno "unrecognized statement %S" tok
  | [] -> assert false

let parse_blocks text =
  let lines = String.split_on_char '\n' text in
  let rec loop lineno blocks current = function
    | [] -> (
        match current with
        | Some _ -> fail lineno "unterminated block (missing 'end')"
        | None -> List.rev blocks)
    | line :: rest -> (
        let tokens = tokenize_line line in
        match tokens, current with
        | [], _ -> loop (lineno + 1) blocks current rest
        | [ "dfg"; name ], None ->
            loop (lineno + 1) blocks (Some { header = `Dfg name; line = lineno; body = [] }) rest
        | [ "behavior"; bname; "variant"; vname ], None ->
            loop (lineno + 1) blocks
              (Some { header = `Behavior (bname, vname); line = lineno; body = [] })
              rest
        | ("dfg" | "behavior") :: _, Some _ -> fail lineno "nested block"
        | ("dfg" | "behavior") :: _, None -> fail lineno "malformed block header"
        | [ "end" ], Some b -> loop (lineno + 1) ({ b with body = List.rev b.body } :: blocks) None rest
        | [ "end" ], None -> fail lineno "stray 'end'"
        | _, None -> fail lineno "statement outside block"
        | _, Some b -> loop (lineno + 1) blocks (Some { b with body = (lineno, parse_stmt lineno tokens) :: b.body }) rest)
  in
  loop 1 [] None lines

let build_block ~max_outputs block =
  let name = match block.header with `Dfg n -> n | `Behavior (_, v) -> v in
  let b = Dfg.Builder.create name in
  let env : (string, Dfg.port * int) Hashtbl.t = Hashtbl.create 16 in (* port, outputs *)
  let feeds : (int * string * (Dfg.port -> unit)) list ref = ref [] in
  let resolve lineno src =
    let base, out =
      match String.index_opt src '.' with
      | None -> (src, 0)
      | Some i -> (String.sub src 0 i, parse_int lineno (String.sub src (i + 1) (String.length src - i - 1)))
    in
    match Hashtbl.find_opt env base with
    | None -> fail lineno "undefined source %S" src
    | Some (port, n_out) ->
        if out < 0 || out >= n_out then
          fail lineno "source %S: %s has no output port %d (it has %d)" src base out n_out;
        { port with Dfg.out } (* call outputs share the node id *)
  in
  let define lineno label ?(n_out = 1) port =
    if Hashtbl.mem env label then fail lineno "duplicate label %S" label;
    Hashtbl.add env label (port, n_out)
  in
  List.iter
    (fun (lineno, stmt) ->
      match stmt with
      | S_input label -> define lineno label (Dfg.Builder.input b label)
      | S_const (label, v) -> define lineno label (Dfg.Builder.const b ~label v)
      | S_op (label, op, srcs) ->
          define lineno label (Dfg.Builder.op b ~label op (List.map (resolve lineno) srcs))
      | S_delay (label, src, init) ->
          (* created in statement order so round-trips preserve node
             numbering; the source may be defined later (recurrences),
             so it is patched in after the full pass *)
          let port, feed = Dfg.Builder.delay_feed b ~label ~init () in
          define lineno label port;
          feeds := (lineno, src, feed) :: !feeds
      | S_call (label, behavior, n_out, srcs) ->
          let srcs = List.map (resolve lineno) srcs in
          if n_out < 1 then fail lineno "call %S has no outputs" label;
          if n_out > max_outputs then
            fail lineno "call %S has %d outputs, more than the program's %d statements" label n_out
              max_outputs;
          define lineno label ~n_out (Dfg.Builder.call b ~label ~behavior ~n_out srcs).(0)
      | S_output (label, src) -> Dfg.Builder.output b ~label (resolve lineno src))
    block.body;
  List.iter (fun (lineno, src, feed) -> feed (resolve lineno src)) !feeds;
  match Dfg.Builder.finish b with
  | dfg -> dfg
  | exception Invalid_argument msg -> fail block.line "%s" msg

(* Behaviors are stateless: the simulator restarts a module part at
   every invocation, while flattening would keep one delay per call
   site, so a delay inside a behavior has no single meaning. *)
let check_stateless bname vname body =
  List.iter
    (fun (lineno, stmt) ->
      match stmt with
      | S_delay (label, _, _) ->
          fail lineno "behavior %s variant %s: delay %s: behaviors must be stateless" bname vname
            label
      | S_input _ | S_const _ | S_op _ | S_call _ | S_output _ -> ())
    body

let parse_string text =
  let blocks = parse_blocks text in
  (* no behavior the program defines has more outputs than it has statements *)
  let max_outputs = List.fold_left (fun n block -> n + List.length block.body) 0 blocks in
  let registry = Registry.create () in
  let graphs =
    List.filter_map
      (fun block ->
        match block.header with
        | `Behavior (bname, vname) -> (
            check_stateless bname vname block.body;
            let dfg = build_block ~max_outputs block in
            match Registry.register registry bname dfg with
            | () -> None
            | exception Invalid_argument msg -> fail block.line "%s" msg)
        | `Dfg _ -> Some (build_block ~max_outputs block))
      blocks
  in
  { registry; graphs }

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let select_graph ?name { graphs; _ } =
  let available () =
    graphs |> List.map (fun (g : Dfg.t) -> g.Dfg.name) |> String.concat ", "
  in
  match name with
  | Some n -> (
      match List.find_opt (fun (g : Dfg.t) -> g.Dfg.name = n) graphs with
      | Some g -> Ok g
      | None ->
          if graphs = [] then Error (Printf.sprintf "no dfg block named %S (file has none)" n)
          else Error (Printf.sprintf "no dfg block named %S (available: %s)" n (available ())))
  | None -> (
      match graphs with
      | [ g ] -> Ok g
      | [] -> Error "no dfg block in file"
      | _ ->
          Error
            (Printf.sprintf "file has several dfg blocks, pick one by name (available: %s)"
               (available ())))

(* ------------------------------------------------------------------ *)
(* Printing *)

let src_name (dfg : Dfg.t) ({ Dfg.node; out } : Dfg.port) =
  let label = dfg.nodes.(node).Dfg.label in
  match dfg.nodes.(node).Dfg.kind with
  | Dfg.Call _ -> Printf.sprintf "%s.%d" label out
  | _ -> label

let print_dfg buf ?behavior (dfg : Dfg.t) =
  (match behavior with
  | Some bname -> Buffer.add_string buf (Printf.sprintf "behavior %s variant %s\n" bname dfg.name)
  | None -> Buffer.add_string buf (Printf.sprintf "dfg %s\n" dfg.name));
  Array.iter
    (fun (node : Dfg.node) ->
      let line =
        match node.kind with
        | Dfg.Input -> Printf.sprintf "  input %s" node.label
        | Dfg.Const v -> Printf.sprintf "  const %s %d" node.label v
        | Dfg.Op op ->
            Printf.sprintf "  op %s %s %s" node.label (Op.name op)
              (String.concat " " (List.map (src_name dfg) (Array.to_list node.ins)))
        | Dfg.Delay 0 -> Printf.sprintf "  delay %s %s" node.label (src_name dfg node.ins.(0))
        | Dfg.Delay init -> Printf.sprintf "  delay %s %s init %d" node.label (src_name dfg node.ins.(0)) init
        | Dfg.Call b ->
            Printf.sprintf "  call %s %s %d %s" node.label b node.n_out
              (String.concat " " (List.map (src_name dfg) (Array.to_list node.ins)))
        | Dfg.Output -> Printf.sprintf "  output %s %s" node.label (src_name dfg node.ins.(0))
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    dfg.nodes;
  Buffer.add_string buf "end\n"

let to_string { registry; graphs } =
  let buf = Buffer.create 1024 in
  List.iter
    (fun bname ->
      List.iter
        (fun variant ->
          print_dfg buf ~behavior:bname variant;
          Buffer.add_char buf '\n')
        (Registry.variants registry bname))
    (Registry.behaviors registry);
  List.iter
    (fun g ->
      print_dfg buf g;
      Buffer.add_char buf '\n')
    graphs;
  Buffer.contents buf

let to_dot (dfg : Dfg.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=TB;\n" dfg.name);
  Array.iteri
    (fun id (node : Dfg.node) ->
      let shape, text =
        match node.kind with
        | Dfg.Input -> ("invtriangle", node.label)
        | Dfg.Output -> ("triangle", node.label)
        | Dfg.Const v -> ("box", Printf.sprintf "%s=%d" node.label v)
        | Dfg.Delay _ -> ("box", "z-1 " ^ node.label)
        | Dfg.Op op -> ("circle", Op.name op)
        | Dfg.Call b -> ("doublecircle", b)
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [shape=%s,label=%S];\n" id shape text))
    dfg.nodes;
  Array.iteri
    (fun dst (node : Dfg.node) ->
      Array.iteri
        (fun dst_in ({ Dfg.node = src; out } : Dfg.port) ->
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [label=\"%d:%d\"];\n" src dst out dst_in))
        node.ins)
    dfg.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
