module Op = Hsyn_dfg.Op
module Dfg = Hsyn_dfg.Dfg
module Fu = Hsyn_modlib.Fu
module Fnv = Hsyn_util.Fnv

type ctx = {
  lib : Hsyn_modlib.Library.t;
  vdd : Hsyn_modlib.Voltage.t;
  clk_ns : float;
}

type inst_kind = Simple of Fu.t | Module of rtl_module

and rtl_module = { rm_name : string; parts : (string * t) list }

and t = {
  dfg : Dfg.t;
  insts : inst_kind array;
  node_inst : int array;
  value_reg : int array;
  n_regs : int;
}

(* ------------------------------------------------------------------ *)
(* Value numbering: the graph's index *)

let n_values (dfg : Dfg.t) = Array.length dfg.index.value_node
let value_index (dfg : Dfg.t) ({ Dfg.node; out } : Dfg.port) = dfg.index.value_off.(node) + out

let value_of_index (dfg : Dfg.t) idx =
  if idx < 0 || idx >= n_values dfg then invalid_arg "Design.value_of_index";
  let node = dfg.index.value_node.(idx) in
  { Dfg.node; out = idx - dfg.index.value_off.(node) }

(* ------------------------------------------------------------------ *)
(* Structural fingerprinting (FNV-1a over the full structure).

   Keys the evaluation engine's cost cache: two designs with equal
   fingerprints are re-checked with structural equality before a cache
   hit is accepted, so collisions cost a recomputation, never a wrong
   answer. *)

(* the chain's step, inlined (see [Fnv.prime]) *)
let[@inline] step h i = Int64.mul (Int64.logxor h (Int64.of_int i)) Fnv.prime
let[@inline] step_float h f = Int64.mul (Int64.logxor h (Int64.bits_of_float f)) Fnv.prime
let mix_int st i = Fnv.store st 0 (step (Fnv.load st 0) i)

let rec mix_ops st = function
  | [] -> ()
  | op :: ops ->
      Fnv.string st (Op.name op);
      mix_ops st ops

let hash_fu st (fu : Fu.t) =
  Fnv.string st fu.Fu.name;
  (match fu.Fu.kind with
  | Fu.Unit ops ->
      mix_int st 1;
      mix_ops st ops
  | Fu.Chain (op, k) ->
      mix_int st 2;
      Fnv.string st (Op.name op);
      mix_int st k);
  let h = step_float (Fnv.load st 0) fu.Fu.area in
  let h = step_float (step_float h fu.Fu.delay_ns) fu.Fu.energy_cap in
  Fnv.store st 0 (step h (if fu.Fu.pipelined then 1 else 0))

let rec hash_design st (d : t) =
  Dfg.hash_into st d.dfg;
  hash_bindings st d

and hash_bindings st (d : t) =
  let insts = d.insts in
  for i = 0 to Array.length insts - 1 do
    match insts.(i) with
    | Simple fu ->
        mix_int st 7;
        hash_fu st fu
    | Module rm ->
        mix_int st 8;
        hash_module st rm
  done;
  Fnv.ints st d.node_inst;
  Fnv.ints st d.value_reg;
  mix_int st d.n_regs

and hash_module st (rm : rtl_module) =
  Fnv.string st rm.rm_name;
  hash_parts st rm.parts

and hash_parts st = function
  | [] -> ()
  | (behavior, part) :: parts ->
      Fnv.string st behavior;
      hash_design st part;
      hash_parts st parts

(* The top-level graph's share of the chain is stored with its index,
   so the candidates of a batch, which share the graph, do not hash it
   again; module parts hash theirs in the chain. *)
let fingerprint d =
  let st = Fnv.create () in
  Fnv.store st 0 d.dfg.index.hash;
  hash_bindings st d;
  Fnv.load st 0

(* ------------------------------------------------------------------ *)
(* Structural equality *)

let int_array_equal (a : int array) (b : int array) =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go k = k < 0 || (Int.equal a.(k) b.(k) && go (k - 1)) in
     go (Array.length a - 1)

let rec equal (a : t) (b : t) =
  a == b
  || Int.equal a.n_regs b.n_regs
     && int_array_equal a.node_inst b.node_inst
     && int_array_equal a.value_reg b.value_reg
     && (a.insts == b.insts
        || Array.length a.insts = Array.length b.insts
           && Array.for_all2 inst_kind_equal a.insts b.insts)
     && (a.dfg == b.dfg || Dfg.equal a.dfg b.dfg)

and inst_kind_equal a b =
  match a, b with
  | Simple fa, Simple fb -> fa == fb || fa = fb
  | Module ma, Module mb ->
      ma == mb
      || String.equal ma.rm_name mb.rm_name
         && List.equal
              (fun (ba, pa) (bb, pb) -> String.equal ba bb && equal pa pb)
              ma.parts mb.parts
  | Simple _, Module _ | Module _, Simple _ -> false

(* ------------------------------------------------------------------ *)
(* Module queries *)

let module_part rm behavior = List.assoc behavior rm.parts
let module_behaviors rm = List.map fst rm.parts

(* ------------------------------------------------------------------ *)
(* Design queries *)

let nodes_on d inst =
  let acc = ref [] in
  for id = Array.length d.node_inst - 1 downto 0 do
    if d.node_inst.(id) = inst then acc := id :: !acc
  done;
  !acc

let values_in_reg d reg =
  let acc = ref [] in
  for v = Array.length d.value_reg - 1 downto 0 do
    if d.value_reg.(v) = reg then acc := v :: !acc
  done;
  !acc

let nodes_by_inst d =
  let acc = Array.make (Array.length d.insts) [] in
  for id = Array.length d.node_inst - 1 downto 0 do
    let i = d.node_inst.(id) in
    if i >= 0 && i < Array.length acc then acc.(i) <- id :: acc.(i)
  done;
  acc

let values_by_reg d =
  let acc = Array.make (max 0 d.n_regs) [] in
  for v = Array.length d.value_reg - 1 downto 0 do
    let r = d.value_reg.(v) in
    if r >= 0 && r < Array.length acc then acc.(r) <- v :: acc.(r)
  done;
  acc

let inst_used d inst = Array.exists (fun i -> i = inst) d.node_inst

let reg_count_used (parts : t list) =
  let used = Array.make (List.fold_left (fun acc d -> max acc d.n_regs) 0 parts) false in
  List.iter (fun d -> Array.iter (fun r -> if r >= 0 then used.(r) <- true) d.value_reg) parts;
  Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used

(* Check that the nodes bound to a chain instance form one linear
   chain of same-kind operations of the required length: each node but
   the last feeds exactly the next one in the set. *)
let chain_shape_ok (d : t) nodes op len =
  List.length nodes = len
  && List.for_all (fun id -> d.dfg.nodes.(id).Dfg.kind = Dfg.Op op) nodes
  &&
  let in_set id = List.mem id nodes in
  let internal_succ id =
    List.filter
      (fun other ->
        Array.exists (fun ({ Dfg.node; _ } : Dfg.port) -> node = id) d.dfg.nodes.(other).Dfg.ins)
      (List.filter (fun other -> other <> id && in_set other) nodes)
  in
  let heads = List.filter (fun id -> internal_succ id = []) nodes in
  (* exactly one tail, and following predecessors covers the set *)
  List.length heads = 1
  && List.for_all (fun id -> List.length (internal_succ id) <= 1) nodes

let rec validate ctx (d : t) =
  let n_nodes = Array.length d.dfg.nodes in
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if Array.length d.node_inst <> n_nodes then err "%s: node_inst length mismatch" d.dfg.name
  else if Array.length d.value_reg <> n_values d.dfg then err "%s: value_reg length mismatch" d.dfg.name
  else begin
    let problem = ref None in
    let set_problem m = if !problem = None then problem := Some m in
    Array.iteri
      (fun id (node : Dfg.node) ->
        let inst = d.node_inst.(id) in
        match node.Dfg.kind with
        | Dfg.Op op -> (
            if inst < 0 || inst >= Array.length d.insts then
              set_problem (Printf.sprintf "%s: op %s unbound" d.dfg.name node.Dfg.label)
            else
              match d.insts.(inst) with
              | Simple fu ->
                  if not (Fu.supports fu op) then
                    set_problem
                      (Printf.sprintf "%s: %s bound to incompatible unit %s" d.dfg.name node.Dfg.label
                         fu.Fu.name)
                  else if Fu.is_chain fu then begin
                    let nodes = nodes_on d inst in
                    if not (chain_shape_ok d nodes op (Fu.chain_length fu)) then
                      set_problem
                        (Printf.sprintf "%s: nodes on chain unit %s do not form a %d-chain" d.dfg.name
                           fu.Fu.name (Fu.chain_length fu))
                  end
              | Module _ ->
                  set_problem (Printf.sprintf "%s: op %s bound to a module" d.dfg.name node.Dfg.label))
        | Dfg.Call behavior -> (
            if inst < 0 || inst >= Array.length d.insts then
              set_problem (Printf.sprintf "%s: call %s unbound" d.dfg.name node.Dfg.label)
            else
              match d.insts.(inst) with
              | Module rm ->
                  if not (List.mem_assoc behavior rm.parts) then
                    set_problem
                      (Printf.sprintf "%s: call %s bound to module %s lacking behavior %s" d.dfg.name
                         node.Dfg.label rm.rm_name behavior)
              | Simple _ ->
                  set_problem (Printf.sprintf "%s: call %s bound to a simple unit" d.dfg.name node.Dfg.label))
        | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ ->
            if inst <> -1 then
              set_problem (Printf.sprintf "%s: node %s should be unbound" d.dfg.name node.Dfg.label))
      d.dfg.nodes;
    Array.iteri
      (fun v reg ->
        if reg < -1 || reg >= d.n_regs then
          set_problem (Printf.sprintf "%s: value %d register %d out of range" d.dfg.name v reg))
      d.value_reg;
    match !problem with
    | Some m -> Error m
    | None ->
        (* module parts must share resources and validate recursively *)
        Array.fold_left
          (fun acc kind ->
            match acc, kind with
            | Error _, _ -> acc
            | Ok (), Simple _ -> acc
            | Ok (), Module rm -> (
                match rm.parts with
                | [] -> Error (Printf.sprintf "module %s has no parts" rm.rm_name)
                | (_, first) :: _ ->
                    List.fold_left
                      (fun acc (_, part) ->
                        match acc with
                        | Error _ -> acc
                        | Ok () ->
                            if part.insts <> first.insts || part.n_regs <> first.n_regs then
                              Error (Printf.sprintf "module %s: parts disagree on resources" rm.rm_name)
                            else validate ctx part)
                      (Ok ()) rm.parts))
          (Ok ()) d.insts
  end

(* ------------------------------------------------------------------ *)
(* Functional updates *)

let with_inst d i kind =
  let insts = Array.copy d.insts in
  insts.(i) <- kind;
  { d with insts }

let with_binding d node inst =
  let node_inst = Array.copy d.node_inst in
  node_inst.(node) <- inst;
  { d with node_inst }

let with_bindings d nodes inst =
  let node_inst = Array.copy d.node_inst in
  List.iter (fun node -> node_inst.(node) <- inst) nodes;
  { d with node_inst }

let with_value_reg d value reg =
  let value_reg = Array.copy d.value_reg in
  value_reg.(value) <- reg;
  { d with value_reg; n_regs = max d.n_regs (reg + 1) }

let add_inst d kind =
  let insts = Array.append d.insts [| kind |] in
  ({ d with insts }, Array.length insts - 1)

let fresh_reg d = ({ d with n_regs = d.n_regs + 1 }, d.n_regs)

let compact d =
  let used = Array.make (Array.length d.insts) false in
  Array.iter (fun i -> if i >= 0 && i < Array.length used then used.(i) <- true) d.node_inst;
  let inst_map = Array.make (Array.length d.insts) (-1) in
  let kept = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun i kind ->
      if used.(i) then begin
        inst_map.(i) <- !next;
        incr next;
        kept := kind :: !kept
      end)
    d.insts;
  let insts = Array.of_list (List.rev !kept) in
  let node_inst = Array.map (fun i -> if i < 0 then -1 else inst_map.(i)) d.node_inst in
  let reg_map = Array.make d.n_regs (-1) in
  let next_reg = ref 0 in
  Array.iter
    (fun r ->
      if r >= 0 && reg_map.(r) < 0 then begin
        reg_map.(r) <- !next_reg;
        incr next_reg
      end)
    d.value_reg;
  let value_reg = Array.map (fun r -> if r < 0 then -1 else reg_map.(r)) d.value_reg in
  { d with insts; node_inst; value_reg; n_regs = !next_reg }

(* ------------------------------------------------------------------ *)
(* Printing *)

let rec pp_inst_kind fmt = function
  | Simple fu -> Fu.pp fmt fu
  | Module rm ->
      Format.fprintf fmt "module %s{%s}" rm.rm_name (String.concat "," (module_behaviors rm))

and pp fmt (d : t) =
  Format.fprintf fmt "@[<v>design for %s:@," d.dfg.name;
  Array.iteri
    (fun i kind ->
      let nodes = nodes_on d i in
      let labels = List.map (fun id -> d.dfg.nodes.(id).Dfg.label) nodes in
      Format.fprintf fmt "  I%d: %a <- [%s]@," i pp_inst_kind kind (String.concat " " labels))
    d.insts;
  Format.fprintf fmt "  registers: %d in use / %d allocated@]" (reg_count_used [ d ]) d.n_regs
