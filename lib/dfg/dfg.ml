module Vec = Hsyn_util.Vec
module Fnv = Hsyn_util.Fnv

type port = { node : int; out : int }

type kind =
  | Input
  | Output
  | Const of int
  | Delay of int
  | Op of Op.t
  | Call of string

type node = { kind : kind; label : string; ins : port array; n_out : int }

(* The index [Builder.finish] builds once per graph. Per-node and
   per-value lists are CSR pairs: [x_off] of length n + 1 delimits each
   entry's slice of the data array. *)
type index = {
  value_off : int array;
  value_node : int array;
  order : int array;
  in_off : int array;
  in_val : int array;
  reader_off : int array;
  readers : int array;
  reader_at_avail : bool array;
  topo_values : int array;
  exec_nodes : int array;
  fixed_values : int array;
  sink_values : int array;
  output_values : int array;
  hash : int64;
}

type t = {
  name : string;
  nodes : node array;
  inputs : int array;
  outputs : int array;
  index : index;
}

let n_out t id = t.nodes.(id).n_out
let topo_order t = t.index.order

(* The structure mixed into an FNV chain, node by node: the design
   fingerprint continues the chain a graph's [index.hash] starts. The
   chain's step is inlined (see [Fnv.prime]). *)
let[@inline] step h i = Int64.mul (Int64.logxor h (Int64.of_int i)) Fnv.prime
let mix_int st i = Fnv.store st 0 (step (Fnv.load st 0) i)

let hash_nodes st name (nodes : node array) =
  Fnv.string st name;
  for k = 0 to Array.length nodes - 1 do
    let node = nodes.(k) in
    (match node.kind with
    | Input -> mix_int st 1
    | Output -> mix_int st 2
    | Const c -> Fnv.store st 0 (step (step (Fnv.load st 0) 3) c)
    | Delay init -> Fnv.store st 0 (step (step (Fnv.load st 0) 4) init)
    | Op op ->
        mix_int st 5;
        Fnv.string st (Op.name op)
    | Call b ->
        mix_int st 6;
        Fnv.string st b);
    let h = ref (step (Fnv.load st 0) node.n_out) in
    let ins = node.ins in
    for p = 0 to Array.length ins - 1 do
      h := step (step !h ins.(p).node) ins.(p).out
    done;
    Fnv.store st 0 !h
  done

let hash_into st t = hash_nodes st t.name t.nodes

(* Everything but the order's acyclicity, which [index] checks. *)
let check name (nodes : node array) inputs outputs =
  let n = Array.length nodes in
  let err fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  let check_node id node =
    let bad_port { node = src; out } =
      if src < 0 || src >= n then Some (Printf.sprintf "node %d: dangling source %d" id src)
      else if out < 0 || out >= nodes.(src).n_out then
        Some (Printf.sprintf "node %d: source %d has no output port %d" id src out)
      else
        match nodes.(src).kind with
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
    Array.to_list (Array.mapi (fun id node -> check_node id node) nodes) |> List.filter_map Fun.id
  in
  match node_errors with
  | msg :: _ -> err "%s: %s" name msg
  | [] ->
      let io_ok kind ids =
        Array.for_all
          (fun id -> id >= 0 && id < n && nodes.(id).kind = kind)
          ids
      in
      if not (io_ok Input inputs) then err "%s: inputs array inconsistent" name
      else if not (io_ok Output outputs) then err "%s: outputs array inconsistent" name
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
            nodes
        in
        if dup then err "%s: duplicate node labels" name else Ok ()
      end

let validate t = check t.name t.nodes t.inputs t.outputs

(* The index of checked nodes, or the error of a combinational cycle. *)
let index name (nodes : node array) outputs =
  let n = Array.length nodes in
  let value_off = Array.make (n + 1) 0 and in_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    value_off.(id + 1) <- value_off.(id) + nodes.(id).n_out;
    in_off.(id + 1) <- in_off.(id) + Array.length nodes.(id).ins
  done;
  let n_values = value_off.(n) and n_ports = in_off.(n) in
  let value_node = Array.make n_values 0 in
  for id = 0 to n - 1 do
    Array.fill value_node value_off.(id) nodes.(id).n_out id
  done;
  let in_val = Array.make n_ports 0 and reader_off = Array.make (n_values + 1) 0 in
  for id = 0 to n - 1 do
    Array.iteri
      (fun port { node = src; out } ->
        let v = value_off.(src) + out in
        in_val.(in_off.(id) + port) <- v;
        reader_off.(v) <- reader_off.(v) + 1)
      nodes.(id).ins
  done;
  (* counting sort of the ports by value: inclusive prefix sums, then a
     descending fill leaves each slice ascending and [reader_off.(v)]
     at its start *)
  for v = 1 to n_values do
    reader_off.(v) <- reader_off.(v) + reader_off.(v - 1)
  done;
  let readers = Array.make n_ports 0 and reader_at_avail = Array.make n_ports false in
  for id = n - 1 downto 0 do
    let at_avail = match nodes.(id).kind with Output | Delay _ -> true | _ -> false in
    for s = in_off.(id + 1) - 1 downto in_off.(id) do
      let v = in_val.(s) in
      let c = reader_off.(v) - 1 in
      reader_off.(v) <- c;
      readers.(c) <- id;
      reader_at_avail.(c) <- at_avail
    done
  done;
  (* Kahn's algorithm over the scheduling dependences: a node depends
     on the producers of its inputs, except that values read from a
     Delay come from the previous sample and impose no intra-sample
     ordering. The queue is [order] itself. A pop appends the readers
     it frees in ascending order. *)
  let is_delay id = match nodes.(id).kind with Delay _ -> true | _ -> false in
  let indeg = Array.make n 0 in
  for id = 0 to n - 1 do
    for s = in_off.(id) to in_off.(id + 1) - 1 do
      if not (is_delay value_node.(in_val.(s))) then indeg.(id) <- indeg.(id) + 1
    done
  done;
  let order = Array.make n 0 and tail = ref 0 in
  let push id =
    order.(!tail) <- id;
    incr tail
  in
  for id = 0 to n - 1 do
    if indeg.(id) = 0 then push id
  done;
  let head = ref 0 in
  while !head < !tail do
    let id = order.(!head) in
    incr head;
    if not (is_delay id) then begin
      let first = !tail in
      for c = reader_off.(value_off.(id)) to reader_off.(value_off.(id + 1)) - 1 do
        let dst = readers.(c) in
        indeg.(dst) <- indeg.(dst) - 1;
        if indeg.(dst) = 0 then push dst
      done;
      (* a node of several outputs frees readers of each in turn *)
      for k = first + 1 to !tail - 1 do
        let x = order.(k) and j = ref (k - 1) in
        while !j >= first && order.(!j) > x do
          order.(!j + 1) <- order.(!j);
          decr j
        done;
        order.(!j + 1) <- x
      done
    end
  done;
  if !tail < n then Error (Printf.sprintf "%s: combinational cycle" name)
  else begin
    let topo_values = Array.make n_values 0 and k = ref 0 in
    Array.iter
      (fun id ->
        for v = value_off.(id) to value_off.(id + 1) - 1 do
          topo_values.(!k) <- v;
          incr k
        done)
      order;
    let exec = ref [] and fixed = ref [] and sinks = ref [] in
    for id = n - 1 downto 0 do
      match nodes.(id).kind with
      | Op _ | Call _ -> exec := id :: !exec
      | Const _ -> fixed := value_off.(id) :: !fixed
      | Delay _ ->
          fixed := value_off.(id) :: !fixed;
          sinks := in_val.(in_off.(id)) :: !sinks
      | Output -> sinks := in_val.(in_off.(id)) :: !sinks
      | Input -> ()
    done;
    let st = Fnv.create () in
    hash_nodes st name nodes;
    Ok
      {
        value_off;
        value_node;
        order;
        in_off;
        in_val;
        reader_off;
        readers;
        reader_at_avail;
        topo_values;
        exec_nodes = Array.of_list !exec;
        fixed_values = Array.of_list !fixed;
        sink_values = Array.of_list !sinks;
        output_values = Array.map (fun id -> in_val.(in_off.(id))) outputs;
        hash = Fnv.load st 0;
      }
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
    let name = b.bname and nodes = Vec.to_array b.bnodes in
    let inputs = Vec.to_array b.binputs and outputs = Vec.to_array b.boutputs in
    match Result.bind (check name nodes inputs outputs) (fun () -> index name nodes outputs) with
    | Ok index -> { name; nodes; inputs; outputs; index }
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
