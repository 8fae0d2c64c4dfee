module Vec = Hsyn_util.Vec

type port = { node : int; out : int }

type kind =
  | Input
  | Output
  | Const of int
  | Delay of int
  | Op of Op.t
  | Call of string

type node = { kind : kind; label : string; ins : port array; n_out : int }

type t = {
  name : string;
  nodes : node array;
  inputs : int array;
  outputs : int array;
}

let n_out t id = t.nodes.(id).n_out

(* Scheduling-dependence topological order: a node depends on the
   producers of its inputs, except that values read from a Delay come
   from the previous sample and impose no intra-sample ordering. *)
let topo_order t =
  let n = Array.length t.nodes in
  let indeg = Array.make n 0 in
  let dep_edges dst =
    Array.to_list t.nodes.(dst).ins
    |> List.filter_map (fun { node = src; _ } ->
           match t.nodes.(src).kind with Delay _ -> None | _ -> Some src)
  in
  for dst = 0 to n - 1 do
    indeg.(dst) <- List.length (dep_edges dst)
  done;
  let out_edges = Array.make n [] in
  for dst = 0 to n - 1 do
    List.iter (fun src -> out_edges.(src) <- dst :: out_edges.(src)) (dep_edges dst)
  done;
  let order = Vec.create () in
  let ready = Queue.create () in
  for id = 0 to n - 1 do
    if indeg.(id) = 0 then Queue.add id ready
  done;
  while not (Queue.is_empty ready) do
    let id = Queue.pop ready in
    ignore (Vec.push order id);
    List.iter
      (fun dst ->
        indeg.(dst) <- indeg.(dst) - 1;
        if indeg.(dst) = 0 then Queue.add dst ready)
      (List.sort compare out_edges.(id))
  done;
  if Vec.length order <> n then
    invalid_arg (Printf.sprintf "Dfg.topo_order: combinational cycle in %s" t.name);
  Vec.to_array order

let validate t =
  let n = Array.length t.nodes in
  let err fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  let check_node id node =
    let bad_port { node = src; out } =
      if src < 0 || src >= n then Some (Printf.sprintf "node %d: dangling source %d" id src)
      else if out < 0 || out >= t.nodes.(src).n_out then
        Some (Printf.sprintf "node %d: source %d has no output port %d" id src out)
      else
        match t.nodes.(src).kind with
        | Output -> Some (Printf.sprintf "node %d reads from an Output node" id)
        | _ -> None
    in
    match Array.to_list node.ins |> List.filter_map bad_port with
    | msg :: _ -> Some msg
    | [] -> (
        match node.kind with
        | Input when Array.length node.ins <> 0 -> Some (Printf.sprintf "input node %d has operands" id)
        | Const _ when Array.length node.ins <> 0 -> Some (Printf.sprintf "const node %d has operands" id)
        | Output when Array.length node.ins <> 1 -> Some (Printf.sprintf "output node %d must have 1 operand" id)
        | Delay _ when Array.length node.ins <> 1 -> Some (Printf.sprintf "delay node %d must have 1 operand" id)
        | Op op when Array.length node.ins <> Op.arity op ->
            Some (Printf.sprintf "op node %d (%s) has wrong arity" id (Op.name op))
        | Output when node.n_out <> 0 -> Some (Printf.sprintf "output node %d must have no outputs" id)
        | Call _ when node.n_out < 1 -> Some (Printf.sprintf "call node %d has no outputs" id)
        | _ -> None)
  in
  let node_errors =
    Array.to_list (Array.mapi (fun id node -> check_node id node) t.nodes) |> List.filter_map Fun.id
  in
  match node_errors with
  | msg :: _ -> err "%s: %s" t.name msg
  | [] ->
      let io_ok kind ids =
        Array.for_all
          (fun id -> id >= 0 && id < n && t.nodes.(id).kind = kind)
          ids
      in
      if not (io_ok Input t.inputs) then err "%s: inputs array inconsistent" t.name
      else if not (io_ok Output t.outputs) then err "%s: outputs array inconsistent" t.name
      else begin
        (* Labels must be unique so the textual format round-trips. *)
        let seen = Hashtbl.create 16 in
        let dup =
          Array.exists
            (fun node ->
              if Hashtbl.mem seen node.label then true
              else begin
                Hashtbl.add seen node.label ();
                false
              end)
            t.nodes
        in
        if dup then err "%s: duplicate node labels" t.name
        else
          match topo_order t with
          | _ -> Ok ()
          | exception Invalid_argument msg -> Error msg
      end

module Builder = struct
  type pending = { id : int; mutable fed : bool }

  type b = {
    bname : string;
    bnodes : node Vec.t;
    binputs : int Vec.t;
    boutputs : int Vec.t;
    mutable pendings : pending list;
    mutable fresh : int;
  }

  let create bname =
    { bname; bnodes = Vec.create (); binputs = Vec.create (); boutputs = Vec.create (); pendings = []; fresh = 0 }

  let gen_label b prefix =
    b.fresh <- b.fresh + 1;
    Printf.sprintf "%s%d" prefix b.fresh

  let add b kind label ins n_outputs =
    let id = Vec.push b.bnodes { kind; label; ins = Array.of_list ins; n_out = n_outputs } in
    id

  let input b name =
    let id = add b Input name [] 1 in
    ignore (Vec.push b.binputs id);
    { node = id; out = 0 }

  let const b ?label value =
    let label = match label with Some l -> l | None -> gen_label b "c" in
    { node = add b (Const value) label [] 1; out = 0 }

  let op b ?label o args =
    if List.length args <> Op.arity o then
      invalid_arg (Printf.sprintf "Builder.op: %s expects %d operands" (Op.name o) (Op.arity o));
    let label = match label with Some l -> l | None -> gen_label b (Op.name o) in
    { node = add b (Op o) label args 1; out = 0 }

  let call b ?label ~behavior ~n_out args =
    let label = match label with Some l -> l | None -> gen_label b behavior in
    let id = add b (Call behavior) label args n_out in
    Array.init n_out (fun out -> { node = id; out })

  let delay b ?label ?(init = 0) src =
    let label = match label with Some l -> l | None -> gen_label b "z" in
    { node = add b (Delay init) label [ src ] 1; out = 0 }

  let delay_feed b ?label ?(init = 0) () =
    let label = match label with Some l -> l | None -> gen_label b "z" in
    (* Temporarily self-feed; the closure patches the real source in. *)
    let id = add b (Delay init) label [ { node = 0; out = 0 } ] 1 in
    let node = Vec.get b.bnodes id in
    Vec.set b.bnodes id { node with ins = [| { node = id; out = 0 } |] };
    let pending = { id; fed = false } in
    b.pendings <- pending :: b.pendings;
    let feed src =
      if pending.fed then invalid_arg "Builder.delay_feed: fed twice";
      pending.fed <- true;
      let node = Vec.get b.bnodes id in
      Vec.set b.bnodes id { node with ins = [| src |] }
    in
    ({ node = id; out = 0 }, feed)

  let output b ?label src =
    let label = match label with Some l -> l | None -> gen_label b "out" in
    let id = add b Output label [ src ] 0 in
    ignore (Vec.push b.boutputs id)

  let finish b =
    List.iter
      (fun p -> if not p.fed then invalid_arg "Builder.finish: unfed delay_feed")
      b.pendings;
    let t =
      {
        name = b.bname;
        nodes = Vec.to_array b.bnodes;
        inputs = Vec.to_array b.binputs;
        outputs = Vec.to_array b.boutputs;
      }
    in
    match validate t with
    | Ok () -> t
    | Error msg -> invalid_arg ("Builder.finish: " ^ msg)
end

let n_operations t =
  Array.fold_left (fun acc node -> match node.kind with Op _ -> acc + 1 | _ -> acc) 0 t.nodes

let n_calls t =
  Array.fold_left (fun acc node -> match node.kind with Call _ -> acc + 1 | _ -> acc) 0 t.nodes

let called_behaviors t =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun acc node ->
      match node.kind with
      | Call behavior when not (Hashtbl.mem seen behavior) ->
          Hashtbl.add seen behavior ();
          behavior :: acc
      | _ -> acc)
    [] t.nodes
  |> List.rev

let op_histogram t =
  let count op =
    Array.fold_left
      (fun acc node -> match node.kind with Op o when o = op -> acc + 1 | _ -> acc)
      0 t.nodes
  in
  List.filter_map
    (fun op ->
      let c = count op in
      if c > 0 then Some (op, c) else None)
    Op.all

let equal a b =
  a.name = b.name && a.nodes = b.nodes && a.inputs = b.inputs && a.outputs = b.outputs

let pp_stats fmt t =
  Format.fprintf fmt "%s: %d nodes (%d ops, %d calls, %d in, %d out)" t.name
    (Array.length t.nodes) (n_operations t) (n_calls t) (Array.length t.inputs)
    (Array.length t.outputs)
