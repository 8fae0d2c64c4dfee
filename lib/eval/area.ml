module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Fu = Hsyn_modlib.Fu

type breakdown = {
  units : float;
  registers : float;
  muxes : float;
  wires : float;
  controller : float;
}

let grand_total b = b.units +. b.registers +. b.muxes +. b.wires +. b.controller

(* A steering source: a register, a hardwired constant, or a direct
   (unregistered) unit output. *)
type source = Reg of int | Const_wire of int | Direct of int * int

(* A register writer. *)
type writer = From_inst of int * int | From_input of int | From_delay of int

let source_of_value (d : Design.t) (p : Dfg.port) =
  let dfg = d.Design.dfg in
  let v = Design.value_index dfg p in
  let reg = d.Design.value_reg.(v) in
  if reg >= 0 then Reg reg
  else
    match dfg.Dfg.nodes.(p.Dfg.node).Dfg.kind with
    | Dfg.Const c -> Const_wire c
    | _ -> Direct (d.Design.node_inst.(p.Dfg.node), p.Dfg.out)

(* Every external input feed of the design's instances, one sweep over
   the bindings in ascending node order: [f inst key port]. Plain units
   and modules key a feed by the node's own port index. Chain groups
   number their external inputs (sources not bound to the chain
   itself) consecutively in member order. *)
let iter_feeds (d : Design.t) f =
  let nodes = d.Design.dfg.Dfg.nodes and node_inst = d.Design.node_inst in
  let n_insts = Array.length d.Design.insts in
  (* next key of each chain instance; -1 marks a plain unit or module *)
  let chain_key =
    Array.map
      (function Design.Simple fu when Fu.is_chain fu -> 0 | Design.Simple _ | Design.Module _ -> -1)
      d.Design.insts
  in
  for id = 0 to Array.length node_inst - 1 do
    let i = node_inst.(id) in
    if i >= 0 && i < n_insts then begin
      let ins = nodes.(id).Dfg.ins in
      for port = 0 to Array.length ins - 1 do
        let p = ins.(port) in
        if chain_key.(i) < 0 then f i port p
        else if node_inst.(p.Dfg.node) <> i then begin
          f i chain_key.(i) p;
          chain_key.(i) <- chain_key.(i) + 1
        end
      done
    end
  done

let port_feeds d i =
  let acc = ref [] in
  iter_feeds d (fun i' key p -> if i' = i then acc := (key, p) :: !acc);
  List.rev !acc

let source_equal a b =
  match a, b with
  | Reg r, Reg r' -> Int.equal r r'
  | Const_wire c, Const_wire c' -> Int.equal c c'
  | Direct (i, o), Direct (i', o') -> Int.equal i i' && Int.equal o o'
  | (Reg _ | Const_wire _ | Direct _), _ -> false

let writer_equal a b =
  match a, b with
  | From_inst (i, o), From_inst (i', o') -> Int.equal i i' && Int.equal o o'
  | From_input n, From_input n' | From_delay n, From_delay n' -> Int.equal n n'
  | (From_inst _ | From_input _ | From_delay _), _ -> false

(* Steering cost over a list of designs sharing one resource set (a
   single design for the top level; all parts for a merged module),
   in one pass over each design's feeds and register writers. A slot
   is an (instance, port key) pair or a register; parts union their
   sources into the same slots. Each distinct source of a slot is one
   net, and each beyond the first one mux input, so the nets are
   Σ k and the mux inputs Σ (k - 1) over the slots' distinct-source
   counts k. Both are integer counts, scaled once. *)
let steering (ctx : Design.ctx) (designs : Design.t list) =
  let lib = ctx.Design.lib in
  let nets = ref 0 and mux_inputs = ref 0 in
  let add_distinct equal cur x =
    if List.exists (equal x) cur then cur
    else begin
      incr nets;
      if cur <> [] then incr mux_inputs;
      x :: cur
    end
  in
  let n_insts =
    List.fold_left (fun acc (d : Design.t) -> max acc (Array.length d.Design.insts)) 0 designs
  in
  let ports = Array.make n_insts [||] in
  let add_port_source i key src =
    let row = ports.(i) in
    let row =
      if key < Array.length row then row
      else begin
        let grown = Array.make (max (key + 1) (2 * Array.length row)) [] in
        Array.blit row 0 grown 0 (Array.length row);
        ports.(i) <- grown;
        grown
      end
    in
    row.(key) <- add_distinct source_equal row.(key) src
  in
  let n_regs = List.fold_left (fun acc (d : Design.t) -> max acc d.Design.n_regs) 0 designs in
  let regs = Array.make n_regs [] in
  List.iter
    (fun (d : Design.t) ->
      iter_feeds d (fun i key p -> add_port_source i key (source_of_value d p));
      (* register writers, walking value indices in node order *)
      let v = ref 0 in
      Array.iteri
        (fun node (n : Dfg.node) ->
          for out = 0 to n.Dfg.n_out - 1 do
            let reg = d.Design.value_reg.(!v + out) in
            if reg >= 0 then
              let add w = regs.(reg) <- add_distinct writer_equal regs.(reg) w in
              match n.Dfg.kind with
              | Dfg.Input -> add (From_input node)
              | Dfg.Delay _ -> add (From_delay node)
              | Dfg.Op _ | Dfg.Call _ -> add (From_inst (d.Design.node_inst.(node), out))
              | Dfg.Const _ | Dfg.Output -> ()
          done;
          v := !v + n.Dfg.n_out)
        d.Design.dfg.Dfg.nodes)
    designs;
  let muxes = Float.of_int !mux_inputs *. lib.Hsyn_modlib.Library.mux_area_per_input in
  let wires = Float.of_int !nets *. lib.Hsyn_modlib.Library.wire_area in
  (muxes, wires)

module Module_key = struct
  type t = Design.rtl_module

  let equal = ( == )
  let hash (rm : t) = Hashtbl.hash rm.Design.rm_name
end

(* A module's area depends only on the technology context and the
   module, compared physically: two modules may share a name. *)
module Module_tbl = Hsyn_util.Shard_tbl.Make (Module_key)

type memo = { m_ctx : Design.ctx; areas : float Module_tbl.t }

let memo ctx = { m_ctx = ctx; areas = Module_tbl.create ~capacity:256 () }

(* The scheduler cache threads through the recursion because module
   areas need module profiles (one controller state per busy cycle),
   and computing a profile schedules the module's part. Callers on the
   evaluation hot path pass their session's cache and their engine's
   memo; the public wrappers below default to a fresh cache scoped to
   the call and no memo. *)
let rec inst_area cache memo ctx = function
  | Design.Simple fu -> fu.Fu.area
  | Design.Module rm -> (
      match memo with
      | None -> module_area_rec cache memo ctx rm
      | Some m -> Module_tbl.find_or_build m.areas rm (module_area_rec cache memo ctx))

and datapath_of_parts cache memo ctx (designs : Design.t list) =
  let lib = ctx.Design.lib in
  let first = List.hd designs in
  let units =
    Array.fold_left (fun acc k -> acc +. inst_area cache memo ctx k) 0. first.Design.insts
  in
  let registers = Float.of_int (Design.reg_count_used designs) *. lib.Hsyn_modlib.Library.reg_area in
  let muxes, wires = steering ctx designs in
  { units; registers; muxes; wires; controller = 0. }

and module_area_rec cache memo ctx (rm : Design.rtl_module) =
  let parts = List.map snd rm.Design.parts in
  let b = datapath_of_parts cache memo ctx parts in
  let states =
    List.fold_left
      (fun acc (behavior, _) ->
        let p = Hsyn_sched.Sched.module_profile ~cache ctx rm behavior in
        acc + p.Hsyn_sched.Sched.busy)
      0 rm.Design.parts
  in
  let controller = Float.of_int states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state in
  grand_total { b with controller }

let datapath ?(sched_cache = Hsyn_sched.Sched.Cache.create ()) ?memo ctx d =
  Option.iter
    (fun m -> if not (m.m_ctx == ctx) then invalid_arg "Area: memo of another technology context")
    memo;
  datapath_of_parts sched_cache memo ctx [ d ]

let module_area ?(sched_cache = Hsyn_sched.Sched.Cache.create ()) ctx rm =
  module_area_rec sched_cache None ctx rm

let total ?sched_cache ?memo ctx d ~n_states =
  let b = datapath ?sched_cache ?memo ctx d in
  { b with controller = Float.of_int n_states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state }
