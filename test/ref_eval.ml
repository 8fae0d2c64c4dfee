(* The evaluation kernels as they stood before simulation ran over
   value arrays and the power and area models became array passes: the
   simulator ([Sim.run]), the switched-capacitance estimate
   ([Power.energy_per_sample]) and the area model's feed enumeration
   and steering count ([Area.datapath], [Area.module_area]), kept
   verbatim apart from their names as the reference the differential
   test in test_eval_ref.ml holds the production kernels to, bit for
   bit. [hamming] is the bit-loop form the SWAR popcount replaced. Not
   for use outside the tests. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Sched = Hsyn_sched.Sched
module Area = Hsyn_eval.Area
module Fu = Hsyn_modlib.Fu
module Library = Hsyn_modlib.Library

module Bits = struct
  include Hsyn_util.Bits

  let hamming a b = popcount (truncate a lxor truncate b)
end

(* ------------------------------------------------------------------ *)
(* Area model *)

type source = Area.source = Reg of int | Const_wire of int | Direct of int * int

(* A register writer. *)
type writer = From_inst of int * int | From_input of int | From_delay of int

(* External input ports of an instance's bound nodes (ascending ids),
   with a stable port key. Chain groups flatten their external inputs
   in member order; plain units and modules use the node's own port
   index. *)
let ref_feeds_of_nodes (d : Design.t) i nodes =
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

let ref_port_feeds d i = ref_feeds_of_nodes d i (Design.nodes_on d i)
let ref_port_feeds_all d = Array.mapi (ref_feeds_of_nodes d) (Design.nodes_by_inst d)

let ref_reg_writers (d : Design.t) =
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
let ref_steering (ctx : Design.ctx) (designs : Design.t list) =
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
              let src = Area.source_of_value d p in
              add_port_source i key src;
              Hashtbl.replace nets (To_port (src, i, key)) ())
            feeds)
        (ref_port_feeds_all d))
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
        (ref_reg_writers d))
    designs;
  let reg_mux_inputs =
    Hashtbl.fold (fun _ ws acc -> acc + max 0 (List.length ws - 1)) reg_sources 0
  in
  let muxes = Float.of_int (mux_inputs + reg_mux_inputs) *. lib.Hsyn_modlib.Library.mux_area_per_input in
  let wires = Float.of_int (Hashtbl.length nets) *. lib.Hsyn_modlib.Library.wire_area in
  (muxes, wires)

let rec ref_inst_area cache ctx = function
  | Design.Simple fu -> fu.Fu.area
  | Design.Module rm -> ref_module_area_rec cache ctx rm

and ref_datapath_of_parts cache ctx (designs : Design.t list) =
  let lib = ctx.Design.lib in
  let first = List.hd designs in
  let units = Array.fold_left (fun acc k -> acc +. ref_inst_area cache ctx k) 0. first.Design.insts in
  let used_regs =
    let used = Array.make (max 1 first.Design.n_regs) false in
    List.iter
      (fun (d : Design.t) -> Array.iter (fun r -> if r >= 0 then used.(r) <- true) d.Design.value_reg)
      designs;
    Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used
  in
  let registers = Float.of_int used_regs *. lib.Hsyn_modlib.Library.reg_area in
  let muxes, wires = ref_steering ctx designs in
  { Area.units; registers; muxes; wires; controller = 0. }

and ref_module_area_rec cache ctx (rm : Design.rtl_module) =
  let parts = List.map snd rm.Design.parts in
  let b = ref_datapath_of_parts cache ctx parts in
  let states =
    List.fold_left
      (fun acc (behavior, _) ->
        let p = Sched.module_profile ~cache ctx rm behavior in
        acc + p.Sched.busy)
      0 rm.Design.parts
  in
  let controller = Float.of_int states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state in
  Area.grand_total { b with controller }

let ref_datapath ~sched_cache ctx d = ref_datapath_of_parts sched_cache ctx [ d ]
let ref_module_area ~sched_cache ctx rm = ref_module_area_rec sched_cache ctx rm

(* ------------------------------------------------------------------ *)
(* Simulator *)

(* Evaluate one invocation of [design] given current top-level delay
   state; returns (per-value results, next delay state). Call nodes
   evaluate through the module part they are bound to, recursively,
   with fresh (initial) state — module behaviors are stateless. *)
let rec ref_eval_once (design : Design.t) (state : (int, int) Hashtbl.t) (inputs : int array) =
  let dfg = design.Design.dfg in
  if Array.length inputs <> Array.length dfg.Dfg.inputs then
    invalid_arg "Sim: input vector width mismatch";
  let nv = Design.n_values dfg in
  let values = Array.make nv 0 in
  let value_of (p : Dfg.port) = values.(Design.value_index dfg p) in
  let set_value node out v = values.(Design.value_index dfg { Dfg.node; out }) <- v in
  (* Delay outputs carry the previous sample's value, so they must be
     seeded before the topological walk: their consumers are ordered
     before the Delay node itself (the delay only *latches* within the
     sample). *)
  Array.iteri
    (fun id (node : Dfg.node) ->
      match node.Dfg.kind with
      | Dfg.Delay init ->
          let v = match Hashtbl.find_opt state id with Some v -> v | None -> init in
          set_value id 0 v
      | _ -> ())
    dfg.Dfg.nodes;
  let order = Dfg.topo_order dfg in
  Array.iter
    (fun id ->
      let node = dfg.Dfg.nodes.(id) in
      match node.Dfg.kind with
      | Dfg.Input ->
          let pos = ref 0 in
          Array.iteri (fun i nid -> if nid = id then pos := i) dfg.Dfg.inputs;
          set_value id 0 inputs.(!pos)
      | Dfg.Const v -> set_value id 0 v
      | Dfg.Delay _ -> ()
      | Dfg.Op op -> set_value id 0 (Op.eval op (List.map value_of (Array.to_list node.Dfg.ins)))
      | Dfg.Call behavior ->
          let inst = design.Design.node_inst.(id) in
          let rm =
            match design.Design.insts.(inst) with
            | Design.Module rm -> rm
            | Design.Simple _ -> invalid_arg "Sim: call bound to simple unit"
          in
          let part = Design.module_part rm behavior in
          let args = Array.map value_of node.Dfg.ins in
          let inner_state = Hashtbl.create 4 in
          let inner_values, _ = ref_eval_once part inner_state args in
          let inner_dfg = part.Design.dfg in
          Array.iteri
            (fun j out_id ->
              let src = inner_dfg.Dfg.nodes.(out_id).Dfg.ins.(0) in
              set_value id j inner_values.(Design.value_index inner_dfg src))
            inner_dfg.Dfg.outputs
      | Dfg.Output -> ())
    order;
  (* latch next delay state *)
  let next_state = Hashtbl.copy state in
  Array.iteri
    (fun id (node : Dfg.node) ->
      match node.Dfg.kind with
      | Dfg.Delay _ -> Hashtbl.replace next_state id (value_of node.Dfg.ins.(0))
      | _ -> ())
    dfg.Dfg.nodes;
  (values, next_state)

let ref_sim_run (design : Design.t) invocations =
  let state = ref (Hashtbl.create 8) in
  let streams =
    List.map
      (fun inputs ->
        let values, next = ref_eval_once design !state inputs in
        state := next;
        values)
      invocations
  in
  Array.of_list streams

(* ------------------------------------------------------------------ *)
(* Power model *)

let width_f = Float.of_int Bits.word_width

(* Activity sum of a word stream: sum over transitions of normalized
   Hamming distance, starting from an all-zero word. *)
let activity_sum stream =
  let prev = ref 0 and acc = ref 0. in
  List.iter
    (fun v ->
      acc := !acc +. (Float.of_int (Bits.hamming !prev v) /. width_f);
      prev := v)
    stream;
  !acc

(* Registers clocked by the design, including the shared register
   files of nested RTL modules (counted once per module instance) and
   their own nested modules. *)
let rec clocked_regs (design : Design.t) =
  let used = Array.make (max 1 design.Design.n_regs) false in
  Array.iter (fun r -> if r >= 0 then used.(r) <- true) design.Design.value_reg;
  let own = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
  Array.fold_left
    (fun acc kind ->
      match kind with
      | Design.Simple _ -> acc
      | Design.Module rm -> acc + clocked_regs_of_module rm)
    own design.Design.insts

and clocked_regs_of_module (rm : Design.rtl_module) =
  match rm.Design.parts with
  | [] -> 0
  | (_, first) :: _ as parts ->
      let used = Array.make (max 1 first.Design.n_regs) false in
      List.iter
        (fun (_, (p : Design.t)) ->
          Array.iter (fun r -> if r >= 0 then used.(r) <- true) p.Design.value_reg)
        parts;
      let own = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
      Array.fold_left
        (fun acc kind ->
          match kind with
          | Design.Simple _ -> acc
          | Design.Module nested -> acc + clocked_regs_of_module nested)
        own first.Design.insts

(* Total functional-unit capacitance of a design, including nested
   modules — the basis of the per-cycle idle-switching charge. *)
let rec total_fu_cap (design : Design.t) =
  Array.fold_left
    (fun acc kind ->
      match kind with
      | Design.Simple fu -> acc +. fu.Fu.energy_cap
      | Design.Module rm -> (
          match rm.Design.parts with
          | [] -> acc
          | (_, first) :: _ -> acc +. total_fu_cap first))
    0. design.Design.insts

let rec ref_energy_rec cache ~top ctx (cs : Sched.constraints) (design : Design.t) invocations =
  let lib = ctx.Design.lib in
  let dfg = design.Design.dfg in
  let n_samples = List.length invocations in
  if n_samples = 0 then 0.
  else begin
    let sch = Sched.schedule ~cache ctx cs design in
    let streams = ref_sim_run design invocations in
    let value_at s (p : Dfg.port) = streams.(s).(Design.value_index dfg p) in
    let total = ref 0. in
    (* --- functional units and modules --- *)
    Array.iteri
      (fun i kind ->
        let nodes = Design.nodes_on design i in
        if nodes <> [] then
          match kind with
          | Design.Simple fu ->
              (* per-port operand streams across all samples, in
                 scheduled activation order *)
              let feeds = ref_port_feeds design i in
              let port_keys = List.sort_uniq compare (List.map fst feeds) in
              let port_stream key =
                List.concat_map
                  (fun s ->
                    List.filter (fun (k, _) -> k = key) feeds
                    |> List.sort (fun (_, (p1 : Dfg.port)) (_, p2) ->
                           compare sch.Sched.start.(p1.Dfg.node) sch.Sched.start.(p2.Dfg.node))
                    |> List.map (fun (_, p) -> value_at s p))
                  (List.init n_samples Fun.id)
              in
              (* The feed list pairs (port key, consuming-node input):
                 for a plain shared unit the same key appears once per
                 bound node, giving the interleaved operand stream the
                 sharing power effect comes from. Activation order
                 within a sample follows the schedule. *)
              let per_port = List.map (fun k -> activity_sum (port_stream k)) port_keys in
              let n_ports = max 1 (List.length port_keys) in
              let mean_act = List.fold_left ( +. ) 0. per_port /. Float.of_int n_ports in
              total := !total +. (fu.Fu.energy_cap *. mean_act);
              (* wire and mux charges per port *)
              List.iter
                (fun k ->
                  let sources =
                    List.filter (fun (key, _) -> key = k) feeds
                    |> List.map (fun (_, p) -> Area.source_of_value design p)
                    |> List.sort_uniq compare
                  in
                  let act = activity_sum (port_stream k) in
                  let mux = if List.length sources > 1 then lib.Library.mux_cap else 0. in
                  total := !total +. ((lib.Library.wire_cap +. mux) *. act))
                port_keys
          | Design.Module rm ->
              (* group calls by behavior; recurse over merged streams *)
              let by_behavior = Hashtbl.create 4 in
              List.iter
                (fun id ->
                  match dfg.Dfg.nodes.(id).Dfg.kind with
                  | Dfg.Call b ->
                      let cur = match Hashtbl.find_opt by_behavior b with Some l -> l | None -> [] in
                      Hashtbl.replace by_behavior b (id :: cur)
                  | _ -> ())
                nodes;
              Hashtbl.iter
                (fun behavior calls ->
                  let calls =
                    List.sort (fun a b -> compare sch.Sched.start.(a) sch.Sched.start.(b)) calls
                  in
                  let part = Design.module_part rm behavior in
                  let inner_invocations =
                    List.concat_map
                      (fun s ->
                        List.map (fun id -> Array.map (value_at s) dfg.Dfg.nodes.(id).Dfg.ins) calls)
                      (List.init n_samples Fun.id)
                  in
                  let inner_cs = Sched.relaxed ~deadline:1_000_000 part.Design.dfg in
                  let e = ref_energy_rec cache ~top:false ctx inner_cs part inner_invocations in
                  total := !total +. (e *. Float.of_int (List.length inner_invocations) /. Float.of_int n_samples))
                by_behavior;
              (* module input port wiring *)
              let feeds = ref_port_feeds design i in
              let port_keys = List.sort_uniq compare (List.map fst feeds) in
              List.iter
                (fun k ->
                  let entries = List.filter (fun (key, _) -> key = k) feeds in
                  let stream =
                    List.concat_map
                      (fun s -> List.map (fun (_, p) -> value_at s p) entries)
                      (List.init n_samples Fun.id)
                  in
                  let sources =
                    List.map (fun (_, p) -> Area.source_of_value design p) entries
                    |> List.sort_uniq compare
                  in
                  let mux = if List.length sources > 1 then lib.Library.mux_cap else 0. in
                  total := !total +. ((lib.Library.wire_cap +. mux) *. activity_sum stream))
                port_keys)
      design.Design.insts;
    (* --- registers --- *)
    for r = 0 to design.Design.n_regs - 1 do
      let values = Design.values_in_reg design r in
      if values <> [] then begin
        let writes =
          List.concat_map
            (fun s ->
              List.map (fun v -> (sch.Sched.avail.(v), streams.(s).(v))) values
              |> List.sort compare |> List.map snd)
            (List.init n_samples Fun.id)
        in
        let act = activity_sum writes in
        let n_writers = List.length values in
        let mux = if n_writers > 1 then lib.Library.mux_cap else 0. in
        total := !total +. ((lib.Library.reg_cap +. lib.Library.wire_cap +. mux) *. act)
      end
    done;
    (* --- controller --- *)
    total := !total +. (lib.Library.ctrl_cap_per_cycle *. Float.of_int (max 1 sch.Sched.makespan));
    (* --- idle switching: register clocking and functional-unit
       input latching, over the whole design, every cycle --- *)
    if top then begin
      let cycles = Float.of_int (max 1 sch.Sched.makespan) in
      total :=
        !total
        +. (lib.Library.reg_clock_cap *. Float.of_int (clocked_regs design) *. cycles)
        +. (lib.Library.fu_idle_frac *. total_fu_cap design *. cycles)
    end;
    !total /. Float.of_int n_samples
  end

let ref_energy_per_sample ?sched_cache:(cache = Sched.Cache.create ()) ctx cs design invocations =
  ref_energy_rec cache ~top:true ctx cs design invocations
