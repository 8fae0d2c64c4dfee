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

(* Stable insertion sort of [a.(0 .. n-1)] by [key]: elements with
   equal keys keep their order. The arrays it sorts are a port's
   operands, a module's calls or a register's values, a handful each. *)
let sort_by (key : int -> int) a n =
  for k = 1 to n - 1 do
    let x = a.(k) in
    let kx = key x in
    let j = ref (k - 1) in
    while !j >= 0 && key a.(!j) > kx do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Toggled bits of the stream that visits, sample after sample, the
   values [order.(0 .. n-1)] indexes (one resource port, operands in
   order). *)
let port_toggles (streams : int array array) order n =
  let prev = ref 0 and acc = ref 0 in
  Array.iter
    (fun values ->
      for k = 0 to n - 1 do
        let x = values.(order.(k)) in
        acc := !acc + Bits.hamming !prev x;
        prev := x
      done)
    streams;
  !acc

(* Toggled bits of every value's own stream, from the all-zero word:
   [port_toggles streams [| v |] 1] for each value [v], in one pass. A
   port that one value feeds and a register that holds one value read
   their count here. *)
let own_toggles (streams : int array array) =
  if Array.length streams = 0 then [||]
  else begin
    let acc = Array.map (Bits.hamming 0) streams.(0) in
    for s = 1 to Array.length streams - 1 do
      let prev = streams.(s - 1) and cur = streams.(s) in
      for v = 0 to Array.length acc - 1 do
        acc.(v) <- acc.(v) + Bits.hamming prev.(v) cur.(v)
      done
    done;
    acc
  end

(* Toggled bits of a register's write stream. [order.(0 .. n-1)] are
   its values, stably sorted by the schedule's [avail]; writes
   available in the same cycle go in ascending data order, so each run
   of equal [avail] is sorted by value, sample by sample, in [scratch].
   The tie-break is part of the model's results. *)
let reg_toggles (streams : int array array) (avail : int array) order n scratch =
  let prev = ref 0 and acc = ref 0 in
  let write x =
    acc := !acc + Bits.hamming !prev x;
    prev := x
  in
  Array.iter
    (fun values ->
      let k = ref 0 in
      while !k < n do
        let a = avail.(order.(!k)) in
        let e = ref (!k + 1) in
        while !e < n && avail.(order.(!e)) = a do
          incr e
        done;
        if !e = !k + 1 then write values.(order.(!k))
        else begin
          let m = !e - !k in
          for j = 0 to m - 1 do
            scratch.(j) <- values.(order.(!k + j))
          done;
          sort_by Fun.id scratch m;
          for j = 0 to m - 1 do
            write scratch.(j)
          done
        end;
        k := !e
      done)
    streams;
  !acc

(* -- the evaluation-context memo ---------------------------------------- *)

(* A module part's energy per invocation is a function of the module,
   which fixes the part and the schedule it replays, the behavior, and
   the part's invocation stream: the arguments of the calls bound to
   the module's instance, in start order, sample after sample. The key
   holds that stream as one flat array of words and its length in
   invocations. Every call of one behavior has the arity of the
   module's part for it (the simulation that made the caller's streams
   checks it), so for one module and behavior two keys are equal
   exactly when the invocation lists are. Keyed by that data, an energy
   is reused across graphs and bound parts whenever the part sees the
   same invocations. *)
module Part_key = struct
  type t = { rm : Design.rtl_module; behavior : string; n_invocations : int; words : int array }

  let equal a b =
    a.rm == b.rm && String.equal a.behavior b.behavior
    && Int.equal a.n_invocations b.n_invocations
    && Array.length a.words = Array.length b.words
    && Array.for_all2 Int.equal a.words b.words

  let hash k =
    let h = ref (Hashtbl.hash k.behavior) in
    for j = 0 to Array.length k.words - 1 do
      h := (!h * 31) + k.words.(j)
    done;
    !h land max_int
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

(* A module's idle terms depend on the module alone. *)
module Module_tbl = Shard_tbl.Make (Area.Module_key)

(* A design's value streams, [values.(s).(v)] as {!Sim.run} returns
   them, and each value's own toggle count ({!own_toggles}), counted
   once when the streams are made and only read after. *)
type streams = { values : int array array; toggles : int array }

(* The basis of the per-cycle idle charges of a design or a module
   instance: the registers it clocks and the capacitance of its
   functional units, each including its nested modules'. *)
type idle = { regs : int; cap : float }

type memo = {
  m_ctx : Design.ctx;
  m_trace : int array list;
  streams : streams Stream_tbl.t;
  parts : float Part_tbl.t;
  idle : idle Module_tbl.t;
}

let memo ctx ~trace =
  {
    m_ctx = ctx;
    m_trace = trace;
    streams = Stream_tbl.create ~capacity:16 ();
    parts = Part_tbl.create ~capacity:512 ();
    idle = Module_tbl.create ~capacity:256 ();
  }

(* -- idle terms -------------------------------------------------------- *)

(* The idle terms of [own] clocked registers plus those of the
   instances [insts], in instance order: each simple unit's
   capacitance, and each module's registers and capacitance. *)
let rec insts_idle memo own (insts : Design.inst_kind array) =
  let regs = ref own and cap = ref 0. in
  for k = 0 to Array.length insts - 1 do
    match insts.(k) with
    | Design.Simple fu -> cap := !cap +. fu.Fu.energy_cap
    | Design.Module rm ->
        let t = module_idle memo rm in
        regs := !regs + t.regs;
        cap := !cap +. t.cap
  done;
  { regs = !regs; cap = !cap }

(* A module's parts share its registers, each clocked once per module
   instance, and carry one set of units: its first part's. *)
and module_idle memo (rm : Design.rtl_module) =
  let build (rm : Design.rtl_module) =
    match rm.Design.parts with
    | [] -> { regs = 0; cap = 0. }
    | (_, first) :: _ as parts ->
        insts_idle memo (Design.reg_count_used (List.map snd parts)) first.Design.insts
  in
  match memo with None -> build rm | Some m -> Module_tbl.find_or_build m.idle rm build

let design_idle memo (design : Design.t) =
  insts_idle memo (Design.reg_count_used [ design ]) design.Design.insts

let sim_probe = Span.probe Span.Power "sim"

let simulate design invocations =
  let values = Span.span sim_probe (fun () -> Sim.run design invocations) in
  { values; toggles = own_toggles values }

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

let no_port = { Dfg.node = 0; out = 0 }

(* [sch] is the design's schedule: the caller's for the top level, the
   module-profile schedule ({!Sched.module_schedule}) for module parts.
   [invocations] is non-empty. The order in which [total] adds its
   terms is part of the result's bits and must not change. [?streams]
   are the design's streams when the caller already has them; [?memo]
   supplies module-part energies at every level and the idle terms of
   modules. Each pass runs over flat arrays allocated once per call. *)
let rec energy_rec cache ?memo ~top ?streams ctx (sch : Sched.schedule) (design : Design.t)
    invocations =
  let lib = ctx.Design.lib in
  let dfg = design.Design.dfg in
  let n_samples = List.length invocations in
  let s = match streams with Some s -> s | None -> simulate design invocations in
  let streams = s.values and toggles = s.toggles in
  let n_insts = Array.length design.Design.insts in
  (* The feeds of instance [i], in feed order, are entries
     [first.(i) .. first.(i + 1) - 1] of [feed_key], [feed_port] and
     [feed_value]; its port keys are below [n_keys.(i)]. *)
  let first = Array.make (n_insts + 1) 0 and n_keys = Array.make n_insts 0 in
  Area.iter_feeds design (fun i key _ ->
      first.(i + 1) <- first.(i + 1) + 1;
      if key >= n_keys.(i) then n_keys.(i) <- key + 1);
  for i = 1 to n_insts do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let n_feeds = first.(n_insts) in
  let feed_key = Array.make n_feeds 0
  and feed_port = Array.make n_feeds no_port
  and feed_value = Array.make n_feeds 0 in
  let next = Array.sub first 0 n_insts in
  Area.iter_feeds design (fun i key p ->
      let j = next.(i) in
      feed_key.(j) <- key;
      feed_port.(j) <- p;
      feed_value.(j) <- Design.value_index dfg p;
      next.(i) <- j + 1);
  (* one port: [sel.(0 .. m-1)] are its feeds, [order] their values *)
  let sel = Array.make n_feeds 0 and order = Array.make n_feeds 0 in
  let collect i key =
    let m = ref 0 in
    for j = first.(i) to first.(i + 1) - 1 do
      if feed_key.(j) = key then begin
        sel.(!m) <- j;
        incr m
      end
    done;
    !m
  in
  (* a port of one feed reads its value's own count, which is what the
     walk over its one-operand stream adds up *)
  let port_activity m =
    if m = 1 then activity toggles.(feed_value.(sel.(0)))
    else begin
      for k = 0 to m - 1 do
        order.(k) <- feed_value.(sel.(k))
      done;
      activity (port_toggles streams order m)
    end
  in
  (* a port is steered when some source differs from the first; a port
     of one feed has nothing to compare *)
  let steered m =
    m > 1
    &&
    let src = Area.source_of_value design feed_port.(sel.(0)) in
    let rec differs k =
      k < m
      && ((not (Area.source_equal src (Area.source_of_value design feed_port.(sel.(k)))))
         || differs (k + 1))
    in
    differs 1
  in
  let wire_charge steered act =
    let mux = if steered then lib.Library.mux_cap else 0. in
    (lib.Library.wire_cap +. mux) *. act
  in
  let used = Array.make n_insts false in
  Array.iter (fun i -> if i >= 0 && i < n_insts then used.(i) <- true) design.Design.node_inst;
  let max_keys = Array.fold_left max 0 n_keys in
  let acts = Array.make max_keys 0. and steers = Array.make max_keys false in
  let total = ref 0. in
  (* A module part's charge: its energy per invocation over the calls
     of [behavior] bound to the module ([calls], descending ids), in
     start order, sample after sample. *)
  let part_charge rm behavior calls =
    let n_calls = Array.length calls in
    sort_by (fun id -> sch.Sched.start.(id)) calls n_calls;
    let arity = Array.length dfg.Dfg.nodes.(calls.(0)).Dfg.ins in
    let per_sample = n_calls * arity in
    let args = Array.make per_sample 0 in
    for c = 0 to n_calls - 1 do
      let ins = dfg.Dfg.nodes.(calls.(c)).Dfg.ins in
      for k = 0 to arity - 1 do
        args.((c * arity) + k) <- Design.value_index dfg ins.(k)
      done
    done;
    let n_streams = Array.length streams in
    let words = Array.make (n_streams * per_sample) 0 in
    for s = 0 to n_streams - 1 do
      let values = streams.(s) in
      for j = 0 to per_sample - 1 do
        words.((s * per_sample) + j) <- values.(args.(j))
      done
    done;
    let n_inner = n_streams * n_calls in
    let part_energy _ =
      let inner_invocations = List.init n_inner (fun k -> Array.sub words (k * arity) arity) in
      let part = Design.module_part rm behavior in
      let part_sch = Sched.module_schedule ~cache ctx rm behavior in
      energy_rec cache ?memo ~top:false ctx part_sch part inner_invocations
    in
    let e =
      match memo with
      | None -> part_energy ()
      | Some m ->
          Part_tbl.find_or_build m.parts
            { Part_key.rm; behavior; n_invocations = n_inner; words }
            part_energy
    in
    total := !total +. (e *. Float.of_int n_inner /. Float.of_int n_samples)
  in
  (* --- functional units and modules --- *)
  for i = 0 to n_insts - 1 do
    if used.(i) then
      match design.Design.insts.(i) with
      | Design.Simple fu ->
          (* All feeds of one port key form a port: for a plain shared
             unit the same key appears once per bound node, giving the
             interleaved operand stream the sharing power effect comes
             from. Operands of a port go in the order of their
             producers' start cycles (the known defect documented in
             power.mli). *)
          let n_ports = ref 0 and act_sum = ref 0. in
          for key = 0 to n_keys.(i) - 1 do
            let m = collect i key in
            if m > 0 then begin
              if m > 1 then sort_by (fun j -> sch.Sched.start.(feed_port.(j).Dfg.node)) sel m;
              let act = port_activity m in
              acts.(!n_ports) <- act;
              steers.(!n_ports) <- steered m;
              act_sum := !act_sum +. act;
              incr n_ports
            end
          done;
          let mean_act = !act_sum /. Float.of_int (max 1 !n_ports) in
          total := !total +. (fu.Fu.energy_cap *. mean_act);
          (* wire and mux charges per port *)
          for k = 0 to !n_ports - 1 do
            total := !total +. wire_charge steers.(k) acts.(k)
          done
      | Design.Module rm ->
          (* group calls by behavior; recurse over merged streams, the
             groups in [Hashtbl.iter] order, as the sum has always been
             taken *)
          let by_behavior = Hashtbl.create 4 in
          Array.iteri
            (fun id i' ->
              if i' = i then
                match dfg.Dfg.nodes.(id).Dfg.kind with
                | Dfg.Call b ->
                    let cur = match Hashtbl.find_opt by_behavior b with Some l -> l | None -> [] in
                    Hashtbl.replace by_behavior b (id :: cur)
                | _ -> ())
            design.Design.node_inst;
          Hashtbl.iter
            (fun behavior calls -> part_charge rm behavior (Array.of_list calls))
            by_behavior;
          (* module input port wiring, in feed order *)
          for key = 0 to n_keys.(i) - 1 do
            let m = collect i key in
            if m > 0 then total := !total +. wire_charge (steered m) (port_activity m)
          done
  done;
  (* --- registers: [writes.(0 .. m-1)] are one register's values; one
     value reads its own count, more go in write order --- *)
  let n_values = Array.length design.Design.value_reg in
  let writes = Array.make n_values 0 and scratch = Array.make n_values 0 in
  Array.iter
    (fun values ->
      let m = List.fold_left (fun k v -> writes.(k) <- v; k + 1) 0 values in
      if m > 0 then begin
        let toggled =
          if m = 1 then toggles.(writes.(0))
          else begin
            sort_by (fun v -> sch.Sched.avail.(v)) writes m;
            reg_toggles streams sch.Sched.avail writes m scratch
          end
        in
        let mux = if m > 1 then lib.Library.mux_cap else 0. in
        let act = activity toggled in
        total := !total +. ((lib.Library.reg_cap +. lib.Library.wire_cap +. mux) *. act)
      end)
    (Design.values_by_reg design);
  (* --- controller --- *)
  total := !total +. (lib.Library.ctrl_cap_per_cycle *. Float.of_int (max 1 sch.Sched.makespan));
  (* --- idle switching: register clocking and functional-unit
     input latching, over the whole design, every cycle --- *)
  if top then begin
    let cycles = Float.of_int (max 1 sch.Sched.makespan) in
    let idle = design_idle memo design in
    total :=
      !total
      +. (lib.Library.reg_clock_cap *. Float.of_int idle.regs *. cycles)
      +. (lib.Library.fu_idle_frac *. idle.cap *. cycles)
  end;
  !total /. Float.of_int n_samples

let energy_per_sample ?sched_cache:(cache = Sched.Cache.create ()) ?sched ?memo ctx cs design
    invocations =
  match invocations with
  | [] -> 0.
  | _ ->
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
    let idle = design_idle None design in
    (lib.Library.ctrl_cap_per_cycle *. cycles
    +. (lib.Library.reg_clock_cap *. Float.of_int idle.regs *. cycles)
    +. (lib.Library.fu_idle_frac *. idle.cap *. cycles))
    /. Float.of_int n_samples
  end

let power ?sched_cache ctx cs design invocations ~sampling_ns =
  let e = energy_per_sample ?sched_cache ctx cs design invocations in
  e *. Hsyn_modlib.Voltage.energy_factor ctx.Design.vdd /. sampling_ns *. 1000.
