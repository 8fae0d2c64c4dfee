(* Tests for the evaluation models: traces, simulation, area, power,
   FSM generation. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Registry = Hsyn_dfg.Registry
module B = Hsyn_dfg.Dfg.Builder
module Library = Hsyn_modlib.Library
module Sched = Hsyn_sched.Sched
module Trace = Hsyn_eval.Trace
module Sim = Hsyn_eval.Sim
module Area = Hsyn_eval.Area
module Power = Hsyn_eval.Power
module Fsm = Hsyn_eval.Fsm
module Flatten = Hsyn_dfg.Flatten
module Rng = Hsyn_util.Rng
module Bits = Hsyn_util.Bits

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let ctx = Tu.ctx ()
let lib = Library.default

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_shapes () =
  let rng = Rng.create 1 in
  let t = Trace.generate rng Trace.White ~n_inputs:3 ~length:5 in
  checki "length" 5 (List.length t);
  List.iter (fun v -> checki "width" 3 (Array.length v)) t;
  List.iter
    (fun v -> Array.iter (fun x -> checkb "in word range" true (x >= 0 && x <= 0xffff)) v)
    t

let test_trace_determinism () =
  let t1 = Trace.generate (Rng.create 7) Trace.default_kind ~n_inputs:2 ~length:10 in
  let t2 = Trace.generate (Rng.create 7) Trace.default_kind ~n_inputs:2 ~length:10 in
  checkb "same" true (t1 = t2)

let test_trace_correlated_smoother_than_white () =
  let act kind =
    let t = Trace.generate (Rng.create 3) kind ~n_inputs:1 ~length:200 in
    Bits.activity (List.map (fun v -> v.(0)) t)
  in
  checkb "correlated smoother" true (act (Trace.Correlated 0.95) < act Trace.White)

let test_trace_ramp () =
  let t = Trace.generate (Rng.create 1) (Trace.Ramp 1) ~n_inputs:1 ~length:3 in
  match List.map (fun v -> v.(0)) t with
  | [ a; b; c ] ->
      checki "step1" 1 (Bits.truncate (b - a));
      checki "step2" 1 (Bits.truncate (c - b))
  | _ -> Alcotest.fail "length"

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_matches_reference () =
  (* the bound design computes the same function as the flat graph *)
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  let flat = Flatten.flatten registry g in
  let trace = Tu.trace g in
  let out_design = Sim.outputs d (Sim.run d trace) in
  let out_flat = Sim.run_flat flat trace in
  checkb "same outputs" true (out_design = out_flat)

let test_sim_delay_state () =
  (* accumulator: output should be the running sum *)
  let b = B.create "acc" in
  let x = B.input b "x" in
  let prev, feed = B.delay_feed b () in
  let s = B.op b Op.Add [ x; prev ] in
  feed s;
  B.output b s;
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let trace = [ [| 1 |]; [| 2 |]; [| 3 |] ] in
  let outs = Sim.outputs d (Sim.run d trace) in
  checkb "running sums" true (List.map (fun v -> v.(0)) outs = [ 1; 3; 6 ])

let test_sim_delay_initial_value () =
  let b = B.create "init" in
  let x = B.input b "x" in
  let prev = B.delay b ~init:9 x in
  B.output b prev;
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let outs = Sim.outputs d (Sim.run d [ [| 4 |]; [| 5 |] ]) in
  checkb "init then delayed input" true (List.map (fun v -> v.(0)) outs = [ 9; 4 ])

let test_sim_input_width_checked () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  Alcotest.check_raises "width" (Invalid_argument "Sim: input vector width mismatch") (fun () ->
      ignore (Sim.run d [ [| 1 |] ]))

(* A design of [g] whose call nodes are all bound to instance 0,
   [inst], and nothing else bound: simulation reads only the call
   bindings. *)
let bind_calls (g : Dfg.t) inst =
  {
    Design.dfg = g;
    insts = [| inst |];
    node_inst =
      Array.map (fun (n : Dfg.node) -> match n.Dfg.kind with Dfg.Call _ -> 0 | _ -> -1) g.Dfg.nodes;
    value_reg = Array.make (Design.n_values g) (-1);
    n_regs = 0;
  }

let test_sim_call_width_checked () =
  (* a call passing two arguments to a part of one input *)
  let part =
    let b = B.create "f" in
    B.output b (B.op b Op.Neg [ B.input b "a" ]);
    Tu.initial ctx (B.finish b)
  in
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" in
  B.output b (B.call b ~label:"c" ~behavior:"f" ~n_out:1 [ x; y ]).(0);
  let d = bind_calls (B.finish b) (Design.Module { Design.rm_name = "f"; parts = [ ("f", part) ] }) in
  Alcotest.check_raises "call width" (Invalid_argument "Sim: input vector width mismatch") (fun () ->
      ignore (Sim.run d [ [| 1; 2 |] ]))

let test_sim_call_bound_to_simple_unit () =
  let _, g = Tu.hier_graph () in
  let d = bind_calls g (Design.Simple (Library.find_exn lib "add1")) in
  Alcotest.check_raises "simple unit" (Invalid_argument "Sim: call bound to simple unit") (fun () ->
      ignore (Sim.run d (Tu.trace g)))

let test_sim_run_flat_requires_flat () =
  let _, g = Tu.hier_graph () in
  Alcotest.check_raises "flat only" (Invalid_argument "Sim.run_flat: graph must be flat")
    (fun () -> ignore (Sim.run_flat g [ [| 1; 2; 3 |] ]))

(* Property: flattening preserves simulation semantics on random
   traces (checked on the hierarchical mac example). *)
let prop_flatten_preserves_semantics =
  QCheck.Test.make ~name:"flatten preserves semantics" ~count:30 QCheck.(int_range 0 10_000)
    (fun seed ->
      let registry, g = Tu.hier_graph () in
      let d = Tu.initial ~registry ctx g in
      let flat = Flatten.flatten registry g in
      let trace = Tu.trace ~seed ~length:5 g in
      Sim.outputs d (Sim.run d trace) = Sim.run_flat flat trace)

(* ------------------------------------------------------------------ *)
(* Area *)

(* The area memo keys a module by its identity: two modules with one
   name but different parts keep separate areas. *)
let test_area_memo_keyed_by_module () =
  let registry = Registry.create () in
  let variant name op =
    let b = B.create name in
    let a = B.input b "a" and c = B.input b "b" in
    B.output b ~label:"y" (B.op b ~label:"s" op [ a; c ]);
    B.finish b
  in
  let f_add = variant "f_add" Op.Add and f_mult = variant "f_mult" Op.Mult in
  Registry.register registry "f" f_add;
  Registry.register registry "f" f_mult;
  let g =
    let b = B.create "top" in
    let x = B.input b "x" and y = B.input b "y" in
    B.output b ~label:"o" (B.call b ~label:"c" ~behavior:"f" ~n_out:1 [ x; y ]).(0);
    B.finish b
  in
  let with_module v =
    let d = Tu.initial ~registry ctx g in
    let rm = { Design.rm_name = "m"; parts = [ ("f", Tu.initial ~registry ctx v) ] } in
    Design.with_inst d (Tu.inst_of d "c") (Design.Module rm)
  in
  let d_add = with_module f_add and d_mult = with_module f_mult in
  let plain d = Area.grand_total (Area.total ctx d ~n_states:4) in
  checkb "the parts differ in area" true (plain d_add <> plain d_mult);
  let memo = Area.memo ctx in
  List.iter
    (fun d ->
      let a = Area.grand_total (Area.total ~memo ctx d ~n_states:4) in
      checkb "memoized area equals plain" true
        (Int64.bits_of_float a = Int64.bits_of_float (plain d)))
    [ d_add; d_mult; d_add; d_mult ];
  Alcotest.check_raises "a memo serves one context"
    (Invalid_argument "Area: memo of another technology context") (fun () ->
      ignore (Area.total ~memo (Tu.ctx ~vdd:3.3 ()) d_add ~n_states:4))

(* The memo's last steering count serves a design whose graph,
   bindings and register map are those it was counted from, compared
   physically, and whose instances' chain flags are equal: three adds
   on one chained unit and, with the same tables, on one plain adder
   steer differently, and so do two register maps. *)
let test_area_memo_last_steering () =
  let g = Tu.add_chain_graph () in
  let d, inst = Design.add_inst (Tu.initial ctx g) (Design.Simple (Library.find_exn lib "chained_add3")) in
  let chained =
    Design.compact (Design.with_bindings d (List.map (Tu.node_id g) [ "s1"; "s2"; "s3" ]) inst)
  in
  let i = Tu.inst_of chained "s1" in
  let plain = Design.with_inst chained i (Design.Simple (Library.find_exn lib "add1")) in
  checkb "one graph, one binding, one register map" true
    (plain.Design.dfg == chained.Design.dfg
    && plain.Design.node_inst == chained.Design.node_inst
    && plain.Design.value_reg == chained.Design.value_reg);
  let s1 = Design.value_index g { Dfg.node = Tu.node_id g "s1"; out = 0 } in
  let s2 = Design.value_index g { Dfg.node = Tu.node_id g "s2"; out = 0 } in
  let moved = Design.with_value_reg chained s1 chained.Design.value_reg.(s2) in
  let steering d =
    let b = Area.datapath ctx d in
    (b.Area.muxes, b.Area.wires)
  in
  checkb "chain flags change the steering" true (steering chained <> steering plain);
  checkb "the register map changes the steering" true (steering chained <> steering moved);
  let memo = Area.memo ctx in
  List.iter
    (fun d ->
      let a = Area.grand_total (Area.datapath ~memo ctx d) in
      checkb "memoized datapath equals plain" true
        (Int64.bits_of_float a = Int64.bits_of_float (Area.grand_total (Area.datapath ctx d))))
    [ chained; plain; chained; moved; chained; plain; plain ]

let test_area_components () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let b = Area.datapath ctx d in
  (* 2×add1 + 1×mult1 *)
  checkf "units" 210. b.Area.units;
  (* 7 registers *)
  checkf "registers" 70. b.Area.registers;
  (* fully parallel: single-source ports, no muxes *)
  checkf "muxes" 0. b.Area.muxes;
  checkb "wires positive" true (b.Area.wires > 0.);
  checkf "no controller yet" 0. b.Area.controller

let test_area_total_adds_controller () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let t = Area.total ctx d ~n_states:4 in
  checkf "controller" (4. *. lib.Library.ctrl_area_per_state) t.Area.controller;
  checkb "grand total sums" true
    (Area.grand_total t > Area.grand_total (Area.datapath ctx d))

let test_area_sharing_adds_muxes () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i1 = Tu.inst_of d "s1" in
  let d' = Design.compact (Design.with_binding d (Tu.node_id g "s2") i1) in
  let b0 = Area.datapath ctx d and b1 = Area.datapath ctx d' in
  checkb "fewer units" true (b1.Area.units < b0.Area.units);
  checkb "muxes appear" true (b1.Area.muxes > 0.)

let test_area_register_sharing () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  (* put both adder results in one register (they die at the mult) —
     legality is the scheduler's business, area must just count *)
  let v1 = Design.value_index g { Dfg.node = Tu.node_id g "s1"; out = 0 } in
  let v2 = Design.value_index g { Dfg.node = Tu.node_id g "s2"; out = 0 } in
  let d' = Design.with_value_reg d v2 d.Design.value_reg.(v1) in
  let b0 = Area.datapath ctx d and b1 = Area.datapath ctx (Design.compact d') in
  checkf "one register fewer" (b0.Area.registers -. lib.Library.reg_area) b1.Area.registers

let test_module_area_recursion () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  match d.Design.insts.(0) with
  | Design.Module rm ->
      let a = Area.module_area ctx rm in
      (* mac = mult1 + add1 + registers + controller; clearly > 180 *)
      checkb "module area includes internals" true (a > 180.);
      let b = Area.datapath ctx d in
      checkb "design area includes module areas" true (b.Area.units >= (2. *. a) -. 1e-9)
  | Design.Simple _ -> Alcotest.fail "expected module"

(* ------------------------------------------------------------------ *)
(* Power *)

let energy ?(trace_seed = 5) d =
  let trace = Tu.trace ~seed:trace_seed ~length:12 d.Design.dfg in
  Power.energy_per_sample ctx (Tu.relaxed_cs d.Design.dfg) d trace

let test_power_positive_and_deterministic () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e1 = energy d and e2 = energy d in
  checkb "positive" true (e1 > 0.);
  checkf "deterministic" e1 e2

let test_power_sharing_increases_activity () =
  (* two multiplications of uncorrelated streams: sharing one
     multiplier interleaves them and should raise switched energy
     (the paper's resource-sharing power effect) *)
  let b = B.create "two_mults" in
  let a = B.input b "a" and x = B.input b "b" in
  let c = B.input b "c" and dd = B.input b "d" in
  let m1 = B.op b ~label:"m1" Op.Mult [ a; x ] in
  let m2 = B.op b ~label:"m2" Op.Mult [ c; dd ] in
  B.output b (B.op b ~label:"s" Op.Add [ m1; m2 ]);
  let g = B.finish b in
  let split = Tu.initial ctx g in
  let i1 = Tu.inst_of split "m1" in
  let shared = Design.compact (Design.with_binding split (Tu.node_id g "m2") i1) in
  let e_split = energy split and e_shared = energy shared in
  checkb "sharing does not reduce switched energy" true (e_shared >= e_split *. 0.98)

let test_power_slower_multiplier_cheaper () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i = Tu.inst_of d "m" in
  let d2 = Design.with_inst d i (Design.Simple (Library.find_exn lib "mult2")) in
  checkb "mult2 lowers energy" true (energy d2 < energy d)

let test_power_voltage_scaling () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let trace = Tu.trace g in
  let cs = Tu.relaxed_cs g in
  let p5 = Power.power ctx cs d trace ~sampling_ns:100. in
  let ctx33 = Tu.ctx ~vdd:3.3 () in
  let p33 = Power.power ctx33 cs d trace ~sampling_ns:100. in
  checkb "quadratic saving" true (p33 < p5 *. 0.5)

let test_power_module_recursion () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  checkb "hierarchical energy positive" true (energy d > 0.)

let test_power_empty_trace () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  checkf "no samples, no energy" 0. (Power.energy_per_sample ctx (Tu.relaxed_cs g) d [])

let test_power_idle_hardware_costs () =
  (* an extra, completely unused functional unit still costs energy
     (register clocking / input latching) — the term that makes
     compactness power-relevant *)
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let bloated, _ = Design.add_inst d (Design.Simple (Library.find_exn lib "mult1")) in
  (* an unused instance contributes idle cap; registers are identical *)
  checkb "idle unit costs energy" true (energy bloated > energy d)


(* Properties on random graphs *)

let prop_sim_deterministic =
  QCheck.Test.make ~name:"simulation deterministic on random graphs" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:10 in
      let d = Tu.initial ctx g in
      let trace = Tu.trace ~seed ~length:4 g in
      Sim.run d trace = Sim.run d trace)

let prop_energy_nonnegative =
  QCheck.Test.make ~name:"energy is nonnegative" ~count:40 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:8 in
      let d = Tu.initial ctx g in
      let trace = Tu.trace ~seed ~length:4 g in
      Power.energy_per_sample ctx (Tu.relaxed_cs g) d trace >= 0.)

let prop_area_positive_and_additive =
  QCheck.Test.make ~name:"area positive; extra instance adds its area" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:8 in
      let d = Tu.initial ctx g in
      let a0 = Area.grand_total (Area.datapath ctx d) in
      let d', _ = Design.add_inst d (Design.Simple (Library.find_exn lib "add1")) in
      let a1 = Area.grand_total (Area.datapath ctx d') in
      a0 > 0. && a1 >= a0 +. 30. -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Fsm *)

let test_fsm_generation () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let sch = Sched.schedule ctx (Tu.relaxed_cs g) d in
  let fsm = Fsm.generate d sch in
  checki "states = makespan" sch.Sched.makespan fsm.Fsm.n_states;
  let starts =
    List.concat_map
      (fun (s : Fsm.state) ->
        List.filter_map
          (function Fsm.Start { node; _ } -> Some node | _ -> None)
          s.Fsm.actions)
      fsm.Fsm.states
  in
  checki "three starts" 3 (List.length starts);
  checkb "labels covered" true (List.for_all (fun l -> List.mem l starts) [ "s1"; "s2"; "m" ]);
  let loads =
    List.concat_map
      (fun (s : Fsm.state) ->
        List.filter_map (function Fsm.Load { reg; _ } -> Some reg | _ -> None) s.Fsm.actions)
      fsm.Fsm.states
  in
  checkb "loads present" true (List.length loads >= 3)

let test_netlist_emission () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  let sch = Sched.schedule ctx (Tu.relaxed_cs g) d in
  let v = Hsyn_eval.Netlist.emit ctx d sch in
  let contains needle =
    let n = String.length needle and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = needle || go (i + 1)) in
    go 0
  in
  checkb "module header" true (contains "module hier(");
  checkb "ports" true (contains "input  [15:0] x");
  checkb "controller present" true (contains "case (state)");
  checkb "nested module emitted" true (contains "module mac");
  checkb "register file" true (contains "reg [15:0] r0;")

let test_fsm_pp_smoke () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let sch = Sched.schedule ctx (Tu.relaxed_cs g) d in
  let s = Format.asprintf "%a" Fsm.pp (Fsm.generate d sch) in
  checkb "prints" true (String.length s > 40)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "eval"
    [
      ( "trace",
        [
          tc "shapes" test_trace_shapes;
          tc "determinism" test_trace_determinism;
          tc "correlated smoother" test_trace_correlated_smoother_than_white;
          tc "ramp" test_trace_ramp;
        ] );
      ( "sim",
        [
          tc "matches reference" test_sim_matches_reference;
          tc "delay state" test_sim_delay_state;
          tc "delay initial value" test_sim_delay_initial_value;
          tc "input width checked" test_sim_input_width_checked;
          tc "call width checked" test_sim_call_width_checked;
          tc "call bound to simple unit" test_sim_call_bound_to_simple_unit;
          tc "run_flat requires flat" test_sim_run_flat_requires_flat;
          QCheck_alcotest.to_alcotest prop_flatten_preserves_semantics;
        ] );
      ( "area",
        [
          tc "components" test_area_components;
          tc "total adds controller" test_area_total_adds_controller;
          tc "sharing adds muxes" test_area_sharing_adds_muxes;
          tc "register sharing" test_area_register_sharing;
          tc "module recursion" test_module_area_recursion;
          tc "memo keyed by module identity" test_area_memo_keyed_by_module;
          tc "memo's last steering count" test_area_memo_last_steering;
        ] );
      ( "power",
        [
          tc "positive and deterministic" test_power_positive_and_deterministic;
          tc "sharing increases activity" test_power_sharing_increases_activity;
          tc "slower multiplier cheaper" test_power_slower_multiplier_cheaper;
          tc "voltage scaling" test_power_voltage_scaling;
          tc "module recursion" test_power_module_recursion;
          tc "empty trace" test_power_empty_trace;
          tc "idle hardware costs" test_power_idle_hardware_costs;
        ] );
      ( "fsm",
        [
          tc "generation" test_fsm_generation;
          tc "pp smoke" test_fsm_pp_smoke;
          tc "netlist emission" test_netlist_emission;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_sim_deterministic;
          QCheck_alcotest.to_alcotest prop_energy_nonnegative;
          QCheck_alcotest.to_alcotest prop_area_positive_and_additive;
        ] );
    ]
