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

(* External input ports of an instance's bound nodes (ascending ids),
   with a stable port key. Chain groups flatten their external inputs
   in member order; plain units and modules use the node's own port
   index. *)
let feeds_of_nodes (d : Design.t) i nodes =
  let dfg = d.Design.dfg in
  match d.Design.insts.(i) with
  | Design.Simple fu when Fu.is_chain fu ->
      let members = nodes in
      let feeds = ref [] in
      let key = ref 0 in
      List.iter
        (fun id ->
          Array.iter
            (fun ({ Dfg.node = src; _ } as p : Dfg.port) ->
              if not (List.mem src members) then begin
                feeds := (!key, p) :: !feeds;
                incr key
              end)
            dfg.Dfg.nodes.(id).Dfg.ins)
        members;
      !feeds
  | Design.Simple _ | Design.Module _ ->
      List.concat_map
        (fun id ->
          Array.to_list dfg.Dfg.nodes.(id).Dfg.ins |> List.mapi (fun port p -> (port, p)))
        nodes

let port_feeds d i = feeds_of_nodes d i (Design.nodes_on d i)
let port_feeds_all d = Array.mapi (feeds_of_nodes d) (Design.nodes_by_inst d)

let reg_writers (d : Design.t) =
  let dfg = d.Design.dfg in
  let writers : (int, writer list) Hashtbl.t = Hashtbl.create 16 in
  let add reg w =
    let cur = match Hashtbl.find_opt writers reg with Some l -> l | None -> [] in
    if not (List.mem w cur) then Hashtbl.replace writers reg (w :: cur)
  in
  Array.iteri
    (fun node (n : Dfg.node) ->
      for out = 0 to n.Dfg.n_out - 1 do
        let reg = d.Design.value_reg.(Design.value_index dfg { Dfg.node; out }) in
        if reg >= 0 then
          match n.Dfg.kind with
          | Dfg.Input -> add reg (From_input node)
          | Dfg.Delay _ -> add reg (From_delay node)
          | Dfg.Op _ | Dfg.Call _ -> add reg (From_inst (d.Design.node_inst.(node), out))
          | Dfg.Const _ | Dfg.Output -> ()
      done)
    dfg.Dfg.nodes;
  writers

(* A point-to-point net: a steering source into an instance input port,
   or a register writer into a register. *)
type net = To_port of source * int * int | To_reg of writer * int

(* Steering cost over a list of designs sharing one resource set (a
   single design for the top level; all parts for a merged module). *)
let steering (ctx : Design.ctx) (designs : Design.t list) =
  let lib = ctx.Design.lib in
  let port_sources : (int * int, source list) Hashtbl.t = Hashtbl.create 32 in
  let nets : (net, unit) Hashtbl.t = Hashtbl.create 64 in
  let add_port_source i key src =
    let cur = match Hashtbl.find_opt port_sources (i, key) with Some l -> l | None -> [] in
    if not (List.mem src cur) then Hashtbl.replace port_sources (i, key) (src :: cur)
  in
  List.iter
    (fun d ->
      Array.iteri
        (fun i feeds ->
          List.iter
            (fun (key, p) ->
              let src = source_of_value d p in
              add_port_source i key src;
              Hashtbl.replace nets (To_port (src, i, key)) ())
            feeds)
        (port_feeds_all d))
    designs;
  let mux_inputs =
    Hashtbl.fold (fun _ sources acc -> acc + max 0 (List.length sources - 1)) port_sources 0
  in
  (* register input steering, unioned across designs *)
  let reg_sources : (int, writer list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun d ->
      Hashtbl.iter
        (fun reg ws ->
          let cur = match Hashtbl.find_opt reg_sources reg with Some l -> l | None -> [] in
          let merged = List.fold_left (fun acc w -> if List.mem w acc then acc else w :: acc) cur ws in
          Hashtbl.replace reg_sources reg merged;
          List.iter (fun w -> Hashtbl.replace nets (To_reg (w, reg)) ()) ws)
        (reg_writers d))
    designs;
  let reg_mux_inputs =
    Hashtbl.fold (fun _ ws acc -> acc + max 0 (List.length ws - 1)) reg_sources 0
  in
  let muxes = Float.of_int (mux_inputs + reg_mux_inputs) *. lib.Hsyn_modlib.Library.mux_area_per_input in
  let wires = Float.of_int (Hashtbl.length nets) *. lib.Hsyn_modlib.Library.wire_area in
  (muxes, wires)

(* The scheduler cache threads through the recursion because module
   areas need module profiles (one controller state per busy cycle),
   and computing a profile schedules the module's part. Callers on the
   evaluation hot path pass their session's cache; the public wrappers
   below default to a transient one scoped to the call. *)
let rec inst_area cache ctx = function
  | Design.Simple fu -> fu.Fu.area
  | Design.Module rm -> module_area_rec cache ctx rm

and datapath_of_parts cache ctx (designs : Design.t list) =
  let lib = ctx.Design.lib in
  let first = List.hd designs in
  let units = Array.fold_left (fun acc k -> acc +. inst_area cache ctx k) 0. first.Design.insts in
  let used_regs =
    let used = Array.make (max 1 first.Design.n_regs) false in
    List.iter
      (fun (d : Design.t) -> Array.iter (fun r -> if r >= 0 then used.(r) <- true) d.Design.value_reg)
      designs;
    Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used
  in
  let registers = Float.of_int used_regs *. lib.Hsyn_modlib.Library.reg_area in
  let muxes, wires = steering ctx designs in
  { units; registers; muxes; wires; controller = 0. }

and module_area_rec cache ctx (rm : Design.rtl_module) =
  let parts = List.map snd rm.Design.parts in
  let b = datapath_of_parts cache ctx parts in
  let states =
    List.fold_left
      (fun acc (behavior, _) ->
        let p = Hsyn_sched.Sched.module_profile ~cache ctx rm behavior in
        acc + p.Hsyn_sched.Sched.busy)
      0 rm.Design.parts
  in
  let controller = Float.of_int states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state in
  grand_total { b with controller }

let or_transient = function
  | Some c -> c
  | None -> Hsyn_sched.Sched.Cache.create ~shards:1 ~prepared_capacity:64 ~profile_capacity:256 ()

let datapath ?sched_cache ctx d = datapath_of_parts (or_transient sched_cache) ctx [ d ]

let module_area ?sched_cache ctx rm = module_area_rec (or_transient sched_cache) ctx rm

let total ?sched_cache ctx d ~n_states =
  let b = datapath ?sched_cache ctx d in
  { b with controller = Float.of_int n_states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state }

let pp_breakdown fmt b =
  Format.fprintf fmt "units=%.1f regs=%.1f muxes=%.1f wires=%.1f ctrl=%.1f total=%.1f" b.units
    b.registers b.muxes b.wires b.controller (grand_total b)
