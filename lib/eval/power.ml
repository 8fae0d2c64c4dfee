module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Dfg = Hsyn_dfg.Dfg
module Fu = Hsyn_modlib.Fu
module Bits = Hsyn_util.Bits
module Library = Hsyn_modlib.Library
module Span = Hsyn_obs.Trace
module Shard_tbl = Hsyn_util.Shard_tbl

let width_f = Float.of_int Bits.word_width

(* The activity model charges [cap × Σ hamming(prev, v) / word_width]
   over a resource's word stream, starting from an all-zero word. The
   distances are summed as integers and divided once: every partial sum
   of the per-transition float sum is a multiple of 1/16 far below
   2^53, so it is exact, and equal to [float toggles /. width_f] to the
   last bit. *)
let activity toggles = Float.of_int toggles /. width_f

(* Toggled bits of the stream that visits, sample after sample, the
   values [order] indexes (one resource port, operands in order). *)
let port_toggles (streams : int array array) order =
  let prev = ref 0 and acc = ref 0 in
  Array.iter
    (fun values ->
      Array.iter
        (fun v ->
          let x = values.(v) in
          acc := !acc + Bits.hamming !prev x;
          prev := x)
        order)
    streams;
  !acc

(* Toggled bits of a register's write stream. Writes follow the
   schedule's [avail] order, and writes available in the same cycle go
   in ascending data order: the model sorts (avail, value) pairs, so
   the tie-break is part of its results. Only those tie groups need a
   sort per sample. *)
let reg_toggles (streams : int array array) (avail : int array) values =
  let rec groups = function
    | [] -> []
    | v :: _ as l ->
        let same, rest = List.partition (fun w -> avail.(w) = avail.(v)) l in
        Array.of_list same :: groups rest
  in
  let groups = Array.of_list (groups (List.stable_sort (fun a b -> compare avail.(a) avail.(b)) values)) in
  let prev = ref 0 and acc = ref 0 in
  let write x =
    acc := !acc + Bits.hamming !prev x;
    prev := x
  in
  Array.iter
    (fun values ->
      Array.iter
        (fun g ->
          if Array.length g = 1 then write values.(g.(0))
          else begin
            let xs = Array.map (fun v -> values.(v)) g in
            Array.sort Int.compare xs;
            Array.iter write xs
          end)
        groups)
    streams;
  !acc

(* An instance's feeds grouped by port key: ascending keys, each with
   its feeding ports in feed order. *)
let ports_by_key feeds =
  List.sort_uniq compare (List.map fst feeds)
  |> List.map (fun k -> (k, List.filter_map (fun (k', p) -> if k' = k then Some p else None) feeds))

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

(* -- the evaluation-context memo ---------------------------------------- *)

(* A module part's energy per invocation is a function of the module,
   which fixes the part and the schedule it replays, the behavior, and
   the part's invocation stream: the arguments of the calls bound to
   the module's instance, in start order, sample after sample. Keyed
   by that data, an energy is reused across graphs and bound parts
   whenever the part sees the same invocations. *)
module Part_key = struct
  type t = { rm : Design.rtl_module; behavior : string; invocations : int array list }

  let same_args x y = Array.length x = Array.length y && Array.for_all2 Int.equal x y

  let equal a b =
    a.rm == b.rm && String.equal a.behavior b.behavior
    && List.equal same_args a.invocations b.invocations

  let hash k =
    let mix h args = Array.fold_left (fun h v -> (h * 31) + v) h args in
    List.fold_left mix (Hashtbl.hash k.behavior) k.invocations land max_int
end

(* The top-level streams are a function of the graph and of the part
   bound to each call node, in node order. Both compare physically:
   the registry never checks that two variants of a behavior compute
   the same function, so the parts belong to the key. *)
module Stream_key = struct
  type t = { dfg : Dfg.t; parts : Design.t array }

  let equal a b =
    a.dfg == b.dfg
    && Array.length a.parts = Array.length b.parts
    && Array.for_all2 ( == ) a.parts b.parts

  let hash k = Hashtbl.hash (k.dfg.Dfg.name, Array.length k.dfg.Dfg.nodes)
end

module Part_tbl = Shard_tbl.Make (Part_key)
module Stream_tbl = Shard_tbl.Make (Stream_key)

type memo = {
  m_ctx : Design.ctx;
  m_trace : int array list;
  streams : int array array Stream_tbl.t;
  parts : float Part_tbl.t;
}

let memo ctx ~trace =
  let eviction = Shard_tbl.Second_chance in
  {
    m_ctx = ctx;
    m_trace = trace;
    streams = Stream_tbl.create ~shards:1 ~eviction ~capacity:16 ();
    parts = Part_tbl.create ~shards:1 ~eviction ~capacity:512 ();
  }

let simulate design invocations = Span.span Span.Power "sim" (fun () -> Sim.run design invocations)

(* The part bound to each call node, in node order. *)
let bound_parts (design : Design.t) =
  let nodes = design.Design.dfg.Dfg.nodes in
  let parts = ref [] in
  for id = Array.length nodes - 1 downto 0 do
    match nodes.(id).Dfg.kind with
    | Dfg.Call behavior -> (
        match design.Design.insts.(design.Design.node_inst.(id)) with
        | Design.Module rm -> parts := Design.module_part rm behavior :: !parts
        | Design.Simple _ -> invalid_arg "Power: call bound to simple unit")
    | _ -> ()
  done;
  Array.of_list !parts

let streams_of memo (design : Design.t) invocations =
  let key = { Stream_key.dfg = design.Design.dfg; parts = bound_parts design } in
  Stream_tbl.find_or_build memo.streams key (fun _ -> simulate design invocations)

(* [sch] is the design's schedule: the caller's for the top level, the
   module-profile schedule ({!Sched.module_schedule}) for module parts.
   [invocations] is non-empty. The order in which [total] adds its
   terms is part of the result's bits and must not change. [?streams]
   are the design's streams when the caller already has them; [?memo]
   supplies module-part energies at every level. *)
let rec energy_rec cache ?memo ~top ?streams ctx (sch : Sched.schedule) (design : Design.t)
    invocations =
  let lib = ctx.Design.lib in
  let dfg = design.Design.dfg in
  let vi p = Design.value_index dfg p in
  let n_samples = List.length invocations in
  let streams =
    match streams with Some streams -> streams | None -> simulate design invocations
  in
  let port_activity ports = activity (port_toggles streams (Array.of_list (List.map vi ports))) in
  let steered ports =
    List.length (List.sort_uniq compare (List.map (Area.source_of_value design) ports)) > 1
  in
  let wire_charge ports act =
    let mux = if steered ports then lib.Library.mux_cap else 0. in
    (lib.Library.wire_cap +. mux) *. act
  in
  let feeds = Area.port_feeds_all design in
  let total = ref 0. in
  (* --- functional units and modules --- *)
  Array.iteri
    (fun i nodes ->
      if nodes <> [] then
        match design.Design.insts.(i) with
        | Design.Simple fu ->
            (* The feed list pairs (port key, consuming-node input):
               for a plain shared unit the same key appears once per
               bound node, giving the interleaved operand stream the
               sharing power effect comes from. Operands of a port go
               in the order of their producers' start cycles (the
               known defect documented in power.mli). *)
            let ports = ports_by_key feeds.(i) in
            let by_start (p1 : Dfg.port) (p2 : Dfg.port) =
              compare sch.Sched.start.(p1.Dfg.node) sch.Sched.start.(p2.Dfg.node)
            in
            let acts = List.map (fun (_, ps) -> port_activity (List.stable_sort by_start ps)) ports in
            let n_ports = max 1 (List.length ports) in
            let mean_act = List.fold_left ( +. ) 0. acts /. Float.of_int n_ports in
            total := !total +. (fu.Fu.energy_cap *. mean_act);
            (* wire and mux charges per port *)
            List.iter2 (fun (_, ps) act -> total := !total +. wire_charge ps act) ports acts
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
                let args = List.map (fun id -> Array.map vi dfg.Dfg.nodes.(id).Dfg.ins) calls in
                let inner_invocations =
                  Array.to_list streams
                  |> List.concat_map (fun values ->
                         List.map (Array.map (fun v -> values.(v))) args)
                in
                let part_energy _ =
                  let part = Design.module_part rm behavior in
                  let part_sch = Sched.module_schedule ~cache ctx rm behavior in
                  energy_rec cache ?memo ~top:false ctx part_sch part inner_invocations
                in
                let e =
                  match memo with
                  | None -> part_energy ()
                  | Some m ->
                      Part_tbl.find_or_build m.parts
                        { Part_key.rm; behavior; invocations = inner_invocations }
                        part_energy
                in
                let n_inner = List.length inner_invocations in
                total := !total +. (e *. Float.of_int n_inner /. Float.of_int n_samples))
              by_behavior;
            (* module input port wiring, in feed order *)
            List.iter
              (fun (_, ps) -> total := !total +. wire_charge ps (port_activity ps))
              (ports_by_key feeds.(i)))
    (Design.nodes_by_inst design);
  (* --- registers --- *)
  Array.iter
    (fun values ->
      if values <> [] then begin
        let act = activity (reg_toggles streams sch.Sched.avail values) in
        let mux = if List.length values > 1 then lib.Library.mux_cap else 0. in
        total := !total +. ((lib.Library.reg_cap +. lib.Library.wire_cap +. mux) *. act)
      end)
    (Design.values_by_reg design);
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

let or_transient = function
  | Some c -> c
  | None -> Sched.Cache.transient ()

let energy_per_sample ?sched_cache ?sched ?memo ctx cs design invocations =
  match invocations with
  | [] -> 0.
  | _ ->
      let cache = or_transient sched_cache in
      let sch = match sched with Some sch -> sch | None -> Sched.schedule ~cache ctx cs design in
      let streams =
        Option.map
          (fun m ->
            if not (m.m_ctx == ctx && m.m_trace == invocations) then
              invalid_arg "Power.energy_per_sample: memo of another evaluation context";
            streams_of m design invocations)
          memo
      in
      energy_rec cache ?memo ~top:true ?streams ctx sch design invocations

let energy_floor ctx (design : Design.t) ~makespan ~n_samples =
  if n_samples <= 0 then 0.
  else begin
    (* the trace-independent charges of [energy_rec ~top:true]: the
       controller plus the per-cycle register-clock and idle-switching
       terms. Every remaining term is an activity sum scaled by a
       non-negative capacitance, so this is a true lower bound. *)
    let lib = ctx.Design.lib in
    let cycles = Float.of_int (max 1 makespan) in
    (lib.Library.ctrl_cap_per_cycle *. cycles
    +. (lib.Library.reg_clock_cap *. Float.of_int (clocked_regs design) *. cycles)
    +. (lib.Library.fu_idle_frac *. total_fu_cap design *. cycles))
    /. Float.of_int n_samples
  end

let power ?sched_cache ctx cs design invocations ~sampling_ns =
  let e = energy_per_sample ?sched_cache ctx cs design invocations in
  e *. Hsyn_modlib.Voltage.energy_factor ctx.Design.vdd /. sampling_ns *. 1000.
