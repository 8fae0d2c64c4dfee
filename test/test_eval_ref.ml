(* Differential test of the evaluation kernels against the reference
   copies in ref_eval.ml: the index-walking simulator must produce the
   same value streams, the array-pass power model the same energy to the
   last bit ([Int64.bits_of_float]), with the design's schedule passed
   in and with it omitted, and the array-pass area model the same
   datapath breakdown and module areas, also to the last bit. Raised
   exceptions must agree too.

   Designs: every suite behavior's final design under both objectives
   at the benchmark's reduced effort, fuzz-generated initial designs,
   the unit-swap and register neighbourhood of all of those, and
   hand-built corner cases. *)

module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder
module Registry = Hsyn_dfg.Registry
module Design = Hsyn_rtl.Design
module Library = Hsyn_modlib.Library
module Sched = Hsyn_sched.Sched
module Sim = Hsyn_eval.Sim
module Power = Hsyn_eval.Power
module Area = Hsyn_eval.Area
module Trace = Hsyn_eval.Trace
module Rng = Hsyn_util.Rng
module Initial = Hsyn_core.Initial
module Clib = Hsyn_core.Clib
module Cost = Hsyn_core.Cost
module Engine = Hsyn_core.Engine
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Gen = Hsyn_fuzz.Gen

let ctx = Tu.ctx ()
let lib = Library.default

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* Every module instance of a design, nested ones included. *)
let rec modules_of (d : Design.t) =
  Array.to_list d.Design.insts
  |> List.concat_map (function
       | Design.Simple _ -> []
       | Design.Module rm -> rm :: List.concat_map (fun (_, p) -> modules_of p) rm.Design.parts)

(* The datapath breakdown's four fields and each module's area, as
   bits. *)
let area_bits ~datapath ~module_area (d : Design.t) =
  let b : Area.breakdown = datapath d in
  ( List.map Int64.bits_of_float [ b.Area.units; b.registers; b.muxes; b.wires ],
    List.map (fun rm -> Int64.bits_of_float (module_area rm)) (modules_of d) )

(* Check one design on one trace; returns a description of the first
   disagreement, if any. *)
let disagreement ~cache ctx cs (d : Design.t) trace =
  let sim_ref = outcome (fun () -> Ref_eval.ref_sim_run d trace) in
  let sim_new = outcome (fun () -> Sim.run d trace) in
  let bits f = outcome (fun () -> Int64.bits_of_float (f ())) in
  let e_ref = bits (fun () -> Ref_eval.ref_energy_per_sample ctx cs d trace) in
  let e_omitted = bits (fun () -> Power.energy_per_sample ~sched_cache:cache ctx cs d trace) in
  let e_passed =
    bits (fun () ->
        let sched = Sched.schedule ~cache ctx cs d in
        Power.energy_per_sample ~sched_cache:cache ~sched ctx cs d trace)
  in
  let area_ref =
    outcome (fun () ->
        area_bits
          ~datapath:(Ref_eval.ref_datapath ~sched_cache:cache ctx)
          ~module_area:(Ref_eval.ref_module_area ~sched_cache:cache ctx)
          d)
  in
  let area_new =
    outcome (fun () ->
        area_bits
          ~datapath:(Area.datapath ~sched_cache:cache ctx)
          ~module_area:(Area.module_area ~sched_cache:cache ctx)
          d)
  in
  let show = function Ok b -> Printf.sprintf "%h" (Int64.float_of_bits b) | Error e -> e in
  let show_area = function
    | Ok (fields, modules) ->
        String.concat " "
          (List.map (fun b -> Printf.sprintf "%h" (Int64.float_of_bits b)) (fields @ modules))
    | Error e -> e
  in
  if sim_ref <> sim_new then Some "streams differ"
  else if area_new <> area_ref then
    Some (Printf.sprintf "area %s, reference %s" (show_area area_new) (show_area area_ref))
  else if e_omitted <> e_ref then
    Some (Printf.sprintf "energy (schedule omitted) %s, reference %s" (show e_omitted) (show e_ref))
  else if e_passed <> e_ref then
    Some (Printf.sprintf "energy (schedule passed) %s, reference %s" (show e_passed) (show e_ref))
  else None

(* Checks a list of (label, ctx, constraints, design, trace) cases and
   returns how many ran. *)
let check_all cases =
  let cache = Sched.Cache.create () in
  let failures =
    List.filter_map
      (fun (label, ctx, cs, d, trace) ->
        Option.map (fun msg -> label ^ ": " ^ msg) (disagreement ~cache ctx cs d trace))
      cases
  in
  (match failures with
  | [] -> ()
  | first :: _ -> Alcotest.failf "%d of %d cases disagree; first: %s" (List.length failures) (List.length cases) first);
  List.length cases

(* The kernels must agree on a design's neighbours too, unschedulable
   or infeasible ones included. *)
let with_neighbours label ctx cs d trace =
  List.mapi
    (fun k n -> (Printf.sprintf "%s#%d" label k, ctx, cs, n, trace))
    (Tu.neighbourhood ctx.Design.lib d)

(* ------------------------------------------------------------------ *)
(* Suite final designs *)

(* The effort of the benchmark's requests (bench/perf/workload.ml). *)
let policy = { Engine.default_policy with Engine.jobs = 1 }

let config =
  {
    S.default_config with
    S.max_moves = 6;
    max_passes = 2;
    max_candidates = 24;
    trace_length = 8;
    max_clocks = 2;
    clib_effort = { Clib.default_effort with Clib.max_moves = 4; max_passes = 1; engine = policy };
    engine = policy;
  }

let final_design objective (b : Suite.t) =
  let sampling_ns = 2.2 *. S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  match
    S.Request.make ~config ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective ~sampling_ns ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok req -> (
      match S.synthesize req with Ok r -> r | Error msg -> Alcotest.fail msg)

let test_suite_finals () =
  let cases =
    List.concat_map
      (fun (b : Suite.t) ->
        List.concat_map
          (fun objective ->
            let r = final_design objective b in
            let d = r.S.design in
            let cs = Sched.relaxed ~deadline:r.S.deadline_cycles d.Design.dfg in
            let trace = Tu.trace ~seed:11 ~length:8 d.Design.dfg in
            let label = Printf.sprintf "%s/%s" b.Suite.name (Cost.objective_name objective) in
            with_neighbours label r.S.ctx cs d trace)
          [ Cost.Power; Cost.Area ])
      (Suite.all () @ [ Suite.paulin () ])
  in
  let n = check_all cases in
  Alcotest.(check bool) "hundreds of designs" true (n >= 300);
  (* the area model's module parts union into shared slots *)
  Alcotest.(check bool) "a multi-part module" true
    (List.exists
       (fun (_, _, _, d, _) ->
         List.exists (fun (rm : Design.rtl_module) -> List.length rm.Design.parts > 1) (modules_of d))
       cases)

(* ------------------------------------------------------------------ *)
(* Fuzz-generated designs *)

let test_fuzz_designs () =
  let cases =
    List.concat_map
      (fun seed ->
        let rng = Rng.create seed in
        let prog = Gen.program rng in
        let g = Gen.top_graph prog in
        let d = Initial.build ctx ~complexes:Tu.no_complexes prog.Hsyn_dfg.Text.registry g in
        let trace =
          Trace.generate rng Trace.default_kind ~n_inputs:(Array.length g.Dfg.inputs)
            ~length:(1 + (seed mod 9))
        in
        with_neighbours (Printf.sprintf "fuzz seed %d" seed) ctx (Tu.relaxed_cs g) d trace)
      (List.init 320 Fun.id)
  in
  let n = check_all cases in
  Alcotest.(check bool) "over a thousand designs" true (n >= 1000)

(* ------------------------------------------------------------------ *)
(* Hand-built corner cases *)

let vi (g : Dfg.t) label = Design.value_index g { Dfg.node = Tu.node_id g label; out = 0 }

(* Two inputs in one register are written in the same cycle: the
   register stream orders them by value, sample by sample. *)
let equal_avail_case () =
  let b = B.create "tie" in
  let a = B.input b "a" and x = B.input b "x" in
  B.output b ~label:"y" (B.op b ~label:"s" Op.Add [ a; x ]);
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let va = vi g "a" and vx = vi g "x" in
  let d = Design.with_value_reg d vx d.Design.value_reg.(va) in
  let cs = Tu.relaxed_cs g in
  let sch = Sched.schedule ctx cs d in
  Alcotest.(check int) "same cycle" sch.Sched.avail.(va) sch.Sched.avail.(vx);
  let trace = [ [| 5; 3 |]; [| 1; 9 |]; [| 7; 7 |]; [| 0xffff; 2 |]; [| 0; 0x8000 |] ] in
  ("equal avail", ctx, cs, d, trace)

(* Both register paths and both port paths in one design: ports fed by
   one value and registers holding one value, which read each value's
   own toggle count, next to a register whose two values are written in
   the same cycle and a shared adder whose ports see two operands each,
   which walk their samples. *)
let mixed_paths_case () =
  let b = B.create "mixed" in
  let a = B.input b "a" and x = B.input b "x" and y = B.input b "y" in
  let p = B.op b ~label:"p" Op.Mult [ a; y ] in
  let q = B.op b ~label:"q" Op.Add [ x; y ] in
  B.output b ~label:"o" (B.op b ~label:"s" Op.Add [ p; q ]);
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let d = Design.with_value_reg d (vi g "x") d.Design.value_reg.(vi g "a") in
  let d = Design.compact (Design.with_binding d (Tu.node_id g "s") (Tu.inst_of d "q")) in
  let cs = Tu.relaxed_cs g in
  let sch = Sched.schedule ctx cs d in
  Alcotest.(check int)
    "a and x written in one cycle" sch.Sched.avail.(vi g "a") sch.Sched.avail.(vi g "x");
  let port_sizes label =
    let feeds = Area.port_feeds d (Tu.inst_of d label) in
    List.sort_uniq compare (List.map fst feeds)
    |> List.map (fun key -> List.length (List.filter (fun (k, _) -> k = key) feeds))
  in
  Alcotest.(check (list int)) "one operand per multiplier port" [ 1; 1 ] (port_sizes "p");
  Alcotest.(check (list int)) "two operands per adder port" [ 2; 2 ] (port_sizes "q");
  let held = Array.map List.length (Design.values_by_reg d) in
  Alcotest.(check bool) "a register of one value" true (Array.mem 1 held);
  Alcotest.(check bool) "a register of two values" true (Array.mem 2 held);
  ("mixed paths", ctx, cs, d, Tu.trace ~length:7 g)

let chain_case () =
  let g = Tu.add_chain_graph () in
  let d, inst = Design.add_inst (Tu.initial ctx g) (Design.Simple (Library.find_exn lib "chained_add3")) in
  let d =
    Design.compact
      (List.fold_left (fun acc l -> Design.with_binding acc (Tu.node_id g l) inst) d [ "s1"; "s2"; "s3" ])
  in
  ("chain unit", ctx, Tu.relaxed_cs g, d, Tu.trace ~length:6 g)

let multi_output_case () =
  let registry = Registry.create () in
  let bf =
    let b = B.create "bfly" in
    let p = B.input b "p" and q = B.input b "q" in
    B.output b ~label:"sum" (B.op b ~label:"a" Op.Add [ p; q ]);
    B.output b ~label:"diff" (B.op b ~label:"s" Op.Sub [ p; q ]);
    B.finish b
  in
  Registry.register registry "bfly" bf;
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" in
  let o = B.call b ~label:"c" ~behavior:"bfly" ~n_out:2 [ x; y ] in
  let o2 = B.call b ~label:"c2" ~behavior:"bfly" ~n_out:2 [ o.(1); o.(0) ] in
  B.output b ~label:"u" (B.op b ~label:"m" Op.Mult [ o2.(0); o2.(1) ]);
  let g = B.finish b in
  ("multi-output call", ctx, Tu.relaxed_cs g, Tu.initial ~registry ctx g, Tu.trace ~length:7 g)

let nested_module_case () =
  (* Tu.hier_graph's registry provides "mac" *)
  let registry, _ = Tu.hier_graph () in
  let outer =
    (* the delay restarts from its initial value at every invocation *)
    let b = B.create "outer" in
    let p = B.input b "p" and q = B.input b "q" in
    let z = B.delay b ~label:"z" ~init:3 q in
    let c1 = B.call b ~label:"i1" ~behavior:"mac" ~n_out:1 [ p; z; p ] in
    let c2 = B.call b ~label:"i2" ~behavior:"mac" ~n_out:1 [ c1.(0); q; q ] in
    B.output b ~label:"r" c2.(0);
    B.finish b
  in
  Registry.register registry "outer" outer;
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" in
  let prev, feed = B.delay_feed b () in
  let c = B.call b ~label:"o" ~behavior:"outer" ~n_out:1 [ x; y ] in
  let c' = B.call b ~label:"o2" ~behavior:"outer" ~n_out:1 [ c.(0); prev ] in
  feed c'.(0);
  B.output b ~label:"z" c'.(0);
  let g = B.finish b in
  let d = Tu.initial ~registry ctx g in
  let nested =
    Array.exists
      (function
        | Design.Module rm ->
            List.exists
              (fun (_, (p : Design.t)) ->
                Array.exists (function Design.Module _ -> true | Design.Simple _ -> false) p.Design.insts)
              rm.Design.parts
        | Design.Simple _ -> false)
      d.Design.insts
  in
  Alcotest.(check bool) "a module inside a module part" true nested;
  ("nested module", ctx, Tu.relaxed_cs g, d, Tu.trace ~length:9 g)

(* One module instance runs calls of two behaviors: move C's embedding
   merges the module of a call of "apb_cmd" with the module of a call
   of "ab_cd" (the paper's Example 3), and all three calls are rebound
   onto it. Its part energies are added per behavior in [Hashtbl.iter]
   order, which here is not the order the calls first appear in, after
   the charge of an adder that comes first. *)
let embedded_module_case () =
  let registry = Registry.create () in
  let rtl1 =
    let b = B.create "ab_cd" in
    let a = B.input b "a" and x = B.input b "b" and c = B.input b "c" and d = B.input b "d" in
    let m1 = B.op b ~label:"m1" Op.Mult [ a; x ] and m2 = B.op b ~label:"m2" Op.Mult [ c; d ] in
    B.output b ~label:"y" (B.op b ~label:"s" Op.Add [ m1; m2 ]);
    B.finish b
  in
  let rtl2 =
    let b = B.create "apb_cmd" in
    let a = B.input b "a" and x = B.input b "b" and c = B.input b "c" and d = B.input b "d" in
    let s = B.op b ~label:"s" Op.Add [ a; x ] and t = B.op b ~label:"t" Op.Sub [ c; d ] in
    B.output b ~label:"y" (B.op b ~label:"m" Op.Mult [ s; t ]);
    B.finish b
  in
  Registry.register registry "ab_cd" rtl1;
  Registry.register registry "apb_cmd" rtl2;
  let b = B.create "top" in
  let w = B.input b "w" and x = B.input b "x" and y = B.input b "y" and z = B.input b "z" in
  let s = B.op b ~label:"s" Op.Add [ w; z ] in
  let c1 = B.call b ~label:"c1" ~behavior:"apb_cmd" ~n_out:1 [ s; x; y; z ] in
  let c2 = B.call b ~label:"c2" ~behavior:"ab_cd" ~n_out:1 [ c1.(0); x; z; w ] in
  let c3 = B.call b ~label:"c3" ~behavior:"apb_cmd" ~n_out:1 [ c2.(0); y; c1.(0); x ] in
  B.output b ~label:"o" c3.(0);
  let g = B.finish b in
  let d = Tu.initial ~registry ctx g in
  let inst l = d.Design.node_inst.(Tu.node_id g l) in
  let module_at l =
    match d.Design.insts.(inst l) with
    | Design.Module rm -> rm
    | Design.Simple _ -> Alcotest.fail "a call on a simple unit"
  in
  let merged =
    match Hsyn_embed.Embed.merge_modules ctx ~name:"merged" (module_at "c1") (module_at "c2") with
    | Some (rm, _) -> rm
    | None -> Alcotest.fail "the two modules do not merge"
  in
  let d =
    Design.compact
      (Design.with_bindings
         (Design.with_inst d (inst "c1") (Design.Module merged))
         [ Tu.node_id g "c2"; Tu.node_id g "c3" ]
         (inst "c1"))
  in
  Alcotest.(check int) "an adder and one module instance" 2 (Array.length d.Design.insts);
  Alcotest.(check int) "two parts" 2 (List.length merged.Design.parts);
  (* on this trace the two orders differ in the last bit *)
  ("embedded module", ctx, Tu.relaxed_cs g, d, Tu.trace ~seed:5 ~length:7 g)

(* A shared adder whose first port is fed by a constant, a register
   (input x) and a direct, unregistered unit output (m's value), so the
   port is steered; its second port reads y alone and is not. *)
let steered_port_case () =
  let b = B.create "steer" in
  let x = B.input b "x" and y = B.input b "y" in
  let k = B.const b ~label:"k" 5 in
  let m = B.op b ~label:"m" Op.Mult [ x; y ] in
  B.output b ~label:"o1" (B.op b ~label:"a1" Op.Add [ k; y ]);
  B.output b ~label:"o2" (B.op b ~label:"a2" Op.Add [ x; y ]);
  B.output b ~label:"o3" (B.op b ~label:"a3" Op.Add [ m; y ]);
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let adder = Tu.inst_of d "a1" in
  let d = Design.compact (Design.with_bindings d [ Tu.node_id g "a2"; Tu.node_id g "a3" ] adder) in
  let d = Design.with_value_reg d (vi g "m") (-1) in
  let feeds = Area.port_feeds d (Tu.inst_of d "a1") in
  let sources key =
    List.filter_map (fun (k, p) -> if k = key then Some (Area.source_of_value d p) else None) feeds
  in
  let y_reg = Area.Reg d.Design.value_reg.(vi g "y") in
  Alcotest.(check bool) "constant, register and direct sources" true
    (match sources 0 with [ Area.Const_wire 5; Area.Reg _; Area.Direct _ ] -> true | _ -> false);
  Alcotest.(check bool) "y alone on the second port" true (sources 1 = [ y_reg; y_reg; y_reg ]);
  ("steered port", ctx, Tu.relaxed_cs g, d, Tu.trace ~length:7 g)

let empty_trace_case () =
  let registry, g = Tu.hier_graph () in
  ("empty trace", ctx, Tu.relaxed_cs g, Tu.initial ~registry ctx g, [])

let test_hand_built () =
  let cases =
    List.concat_map
      (fun (label, ctx, cs, d, trace) -> with_neighbours label ctx cs d trace)
      [
        equal_avail_case ();
        mixed_paths_case ();
        chain_case ();
        multi_output_case ();
        nested_module_case ();
        embedded_module_case ();
        steered_port_case ();
        empty_trace_case ();
      ]
  in
  ignore (check_all cases : int);
  let _, _, cs, d, _ = empty_trace_case () in
  Alcotest.(check (float 0.)) "empty trace, no energy" 0. (Power.energy_per_sample ctx cs d [])

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "eval_ref"
    [
      ( "reference kernel",
        [
          tc "suite final designs" test_suite_finals;
          tc "fuzz designs" test_fuzz_designs;
          tc "hand-built cases" test_hand_built;
        ] );
    ]
