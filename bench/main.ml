(* Experiment harness: regenerates every table and figure of the
   paper's evaluation, plus the move-family ablation (see DESIGN.md §4
   and EXPERIMENTS.md for the index). Performance is measured by
   bench/perf, not here.

   Usage:
     dune exec bench/main.exe                 # everything, default effort
     dune exec bench/main.exe -- --quick      # reduced effort (CI)
     dune exec bench/main.exe -- --only table-3

   HSYN_JOBS sets the evaluation worker domains, as for hsyn synth. *)

module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder
module Registry = Hsyn_dfg.Registry
module Text = Hsyn_dfg.Text
module Library = Hsyn_modlib.Library
module Voltage = Hsyn_modlib.Voltage
module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module AreaM = Hsyn_eval.Area
module Embed = Hsyn_embed.Embed
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module Initial = Hsyn_core.Initial
module Pass = Hsyn_core.Pass
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Table = Hsyn_util.Table
module Stats = Hsyn_util.Stats
module Rng = Hsyn_util.Rng

let lib = Library.default

let quick, only =
  let quick = ref false and only = ref None in
  Arg.parse
    [
      ("--quick", Arg.Set quick, " reduced effort (CI)");
      ("--only", Arg.String (fun s -> only := Some s), "SECTION run one section");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "usage: main.exe [--quick] [--only SECTION]";
  (!quick, !only)

let section name = match only with None -> true | Some s -> s = name

let header name title =
  Printf.printf "\n================================================================\n";
  Printf.printf "[%s] %s\n" name title;
  Printf.printf "================================================================\n%!"

(* [Request.make] + [synthesize], raising on error like the retired
   [S.run]/[S.run_flat] shims — bench sections have no error channel. *)
let synthesize ?(flatten = false) ~config ~lib registry dfg objective ~sampling_ns () =
  match
    Result.bind
      (S.Request.make ~config ~flatten ~lib ~registry ~dfg ~objective ~sampling_ns ())
      S.synthesize
  with
  | Ok r -> r
  | Error msg -> failwith ("synthesis failed: " ^ msg)

let config =
  if quick then
    {
      S.default_config with
      S.max_moves = 6;
      max_passes = 2;
      max_candidates = 24;
      trace_length = 8;
      max_clocks = 2;
      clib_effort = { Clib.default_effort with Clib.max_moves = 4; max_passes = 1 };
    }
  else
    (* full effort still has to finish the 6 benchmarks × 3 laxity
       factors × 6 synthesis runs grid in minutes, not hours *)
    {
      S.default_config with
      S.max_passes = 2;
      max_candidates = 40;
      trace_length = 10;
      max_clocks = 2;
    }

let laxity_factors = if quick then [ 2.2 ] else [ 1.2; 2.2; 3.2 ]

(* ------------------------------------------------------------------ *)
(* Table 1: the module library *)

let table_1 () =
  header "table-1" "Summary of functional unit and register properties";
  let t = Table.create ~header:[ "unit"; "functions"; "area"; "delay@5V(20ns clk)"; "energy cap" ] in
  List.iter
    (fun (u : Hsyn_modlib.Fu.t) ->
      let funcs =
        match u.Hsyn_modlib.Fu.kind with
        | Hsyn_modlib.Fu.Unit fns -> String.concat "/" (List.map Op.name fns)
        | Hsyn_modlib.Fu.Chain (op, k) -> Printf.sprintf "chain of %d %s" k (Op.name op)
      in
      Table.add_row t
        [
          u.Hsyn_modlib.Fu.name;
          funcs;
          Table.cell_f ~digits:0 u.Hsyn_modlib.Fu.area;
          string_of_int (Hsyn_modlib.Fu.cycles_at u 5.0 ~clk_ns:20.0) ^ " cycles";
          Table.cell_f u.Hsyn_modlib.Fu.energy_cap;
        ])
    lib.Library.units;
  Table.add_row t
    [ "reg1"; "register"; Table.cell_f ~digits:0 lib.Library.reg_area; "-"; Table.cell_f lib.Library.reg_cap ];
  Table.print t;
  Printf.printf
    "(Table 1 of the paper: add1/add2/chained_add2/chained_add3/mult1/mult2/reg1 rows match\n\
    \ the paper's areas 30/20/60/90/150/100/10 and cycle counts 1/2/1/1/3/5 exactly.)\n"

(* ------------------------------------------------------------------ *)
(* Figure 1: hierarchical DFG test1 and a scheduled/assigned version *)

let figure_1 () =
  header "figure-1" "Hierarchical DFG test1 (reconstruction) and a scheduled design";
  let b = Suite.test1 () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun bname ->
      List.iter
        (fun v -> Text.print_dfg buf ~behavior:bname v)
        (Registry.variants b.Suite.registry bname))
    (Registry.behaviors b.Suite.registry);
  Text.print_dfg buf b.Suite.dfg;
  print_string (Buffer.contents buf);
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  let r = synthesize ~config ~lib b.Suite.registry b.Suite.dfg Cost.Area ~sampling_ns:(1.2 *. min_ns) () in
  let cs = Sched.relaxed ~deadline:r.S.deadline_cycles r.S.design.Design.dfg in
  let sch = Sched.schedule r.S.ctx cs r.S.design in
  Format.printf "%a@." Sched.pp_schedule (r.S.design, sch);
  Format.printf "%a@." Design.pp r.S.design;
  (* Example 1: profile and environment semantics *)
  Printf.printf "Example 1 check (profile/environment semantics):\n";
  let inner_b = B.create "sop" in
  let a = B.input inner_b "a" and x = B.input inner_b "b" in
  let c = B.input inner_b "c" and dd = B.input inner_b "d" in
  let m1 = B.op inner_b ~label:"m1" Op.Mult [ a; x ] in
  let s1 = B.op inner_b ~label:"s1" Op.Add [ m1; c ] in
  let m2 = B.op inner_b ~label:"m2" Op.Mult [ s1; dd ] in
  B.output inner_b ~label:"y" m2;
  let inner = B.finish inner_b in
  let ctx5 = { Design.lib; vdd = 5.0; clk_ns = 20.0 } in
  let part = Initial.build ctx5 ~complexes:(fun _ -> []) (Registry.create ()) inner in
  let rm = { Design.rm_name = "RTL3"; parts = [ ("sop", part) ] } in
  let p = Sched.module_profile ctx5 rm "sop" in
  Printf.printf "  Profile(RTL3) inputs expected at {%s}, output at {%s} (paper: staggered, out 7)\n"
    (String.concat "," (Array.to_list (Array.map string_of_int p.Sched.in_need)))
    (String.concat "," (Array.to_list (Array.map string_of_int p.Sched.out_ready)));
  let start =
    Array.fold_left max 0 (Array.mapi (fun i a -> a - p.Sched.in_need.(i)) [| 2; 5; 3; 7 |])
  in
  Printf.printf
    "  With arrivals (2,5,3,7) the module starts at cycle %d and finishes at cycle %d\n"
    start
    (start + p.Sched.out_ready.(0))

(* ------------------------------------------------------------------ *)
(* Figure 2: library of complex modules *)

let figure_2 () =
  header "figure-2" "Library of complex RTL modules (built for test1's behaviors)";
  let b = Suite.test1 () in
  let ctx = { Design.lib; vdd = 5.0; clk_ns = 20.0 } in
  let clib =
    Clib.build ctx b.Suite.registry ~rng:(Rng.create 42) ~trace_length:8
      ~effort:Clib.default_effort ~top:b.Suite.dfg
  in
  Format.printf "%a@." (Clib.pp ctx) clib

(* ------------------------------------------------------------------ *)
(* Figure 3 + Table 2: RTL embedding *)

let figure_3 () =
  header "figure-3" "RTL embedding: two DFGs on one RTL module (and Table 2)";
  let ctx = { Design.lib; vdd = 5.0; clk_ns = 20.0 } in
  let build name mk =
    let g = mk () in
    {
      Design.rm_name = name;
      parts = [ (g.Dfg.name, Initial.build ctx ~complexes:(fun _ -> []) (Registry.create ()) g) ];
    }
  in
  let rtl1 =
    build "RTL1" (fun () ->
        let bb = B.create "dotprod" in
        let a = B.input bb "a" and x = B.input bb "b" in
        let c = B.input bb "c" and d = B.input bb "d" in
        let m1 = B.op bb ~label:"M1" Op.Mult [ a; x ] in
        let m2 = B.op bb ~label:"M2" Op.Mult [ c; d ] in
        B.output bb (B.op bb ~label:"A1" Op.Add [ m1; m2 ]);
        B.finish bb)
  in
  let rtl2 =
    build "RTL2" (fun () ->
        let bb = B.create "prodmix" in
        let a = B.input bb "a" and x = B.input bb "b" in
        let c = B.input bb "c" and d = B.input bb "d" in
        let s = B.op bb ~label:"A2" Op.Add [ a; x ] in
        let t = B.op bb ~label:"S1" Op.Sub [ c; d ] in
        B.output bb (B.op bb ~label:"M3" Op.Mult [ s; t ]);
        B.finish bb)
  in
  match Embed.merge_modules ctx ~name:"NewRTL" rtl1 rtl2 with
  | None -> Printf.printf "embedding refused (unexpected)\n"
  | Some (merged, corr) ->
      Format.printf "%a@." Embed.pp_correspondence (rtl1, rtl2, merged, corr);
      let a1 = AreaM.module_area ctx rtl1 in
      let a2 = AreaM.module_area ctx rtl2 in
      let am = AreaM.module_area ctx merged in
      let t = Table.create ~header:[ "module"; "behaviors"; "area" ] in
      Table.add_row t [ "RTL1"; "dotprod"; Table.cell_f a1 ];
      Table.add_row t [ "RTL2"; "prodmix"; Table.cell_f a2 ];
      Table.add_row t [ "NewRTL"; "dotprod+prodmix"; Table.cell_f am ];
      Table.print t;
      Printf.printf
        "paper (Example 3): RTL1 57.94, RTL2 53.89, NewRTL 61.67 — the merged module is far\n\
         smaller than the sum of its parts; here %.1f + %.1f = %.1f vs merged %.1f (%.0f%% saved)\n"
        a1 a2 (a1 +. a2) am
        (100. *. (1. -. (am /. (a1 +. a2))))

(* ------------------------------------------------------------------ *)
(* Table 3 + Table 4: the main experiment *)

type cell = {
  bench : string;
  lf : float;
  flat_a_area : float;
  flat_a_power5 : float;
  flat_a_power_sc : float;
  flat_p_area : float;
  flat_p_power : float;
  hier_a_area : float;
  hier_a_power_sc : float;
  hier_p_area : float;
  hier_p_power : float;
  flat_time : float;
  hier_time : float;
}

let run_cell (b : Suite.t) lf =
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  let sampling_ns = lf *. min_ns in
  let fa = synthesize ~flatten:true ~config ~lib b.Suite.registry b.Suite.dfg Cost.Area ~sampling_ns () in
  let fa_sc = S.rescale_vdd ~config fa Voltage.candidates in
  let fp = synthesize ~flatten:true ~config ~lib b.Suite.registry b.Suite.dfg Cost.Power ~sampling_ns () in
  let ha = synthesize ~config ~lib b.Suite.registry b.Suite.dfg Cost.Area ~sampling_ns () in
  let ha_sc = S.rescale_vdd ~config ha Voltage.candidates in
  let hp = synthesize ~config ~lib b.Suite.registry b.Suite.dfg Cost.Power ~sampling_ns () in
  {
    bench = b.Suite.name;
    lf;
    flat_a_area = fa.S.eval.Cost.area;
    flat_a_power5 = fa.S.eval.Cost.power;
    flat_a_power_sc = fa_sc.S.eval.Cost.power;
    flat_p_area = fp.S.eval.Cost.area;
    flat_p_power = fp.S.eval.Cost.power;
    hier_a_area = ha.S.eval.Cost.area;
    hier_a_power_sc = ha_sc.S.eval.Cost.power;
    hier_p_area = hp.S.eval.Cost.area;
    hier_p_power = hp.S.eval.Cost.power;
    flat_time = fa.S.elapsed_s +. fp.S.elapsed_s;
    hier_time = ha.S.elapsed_s +. hp.S.elapsed_s;
  }

let all_cells = ref ([] : cell list)

let cells () =
  if !all_cells = [] then begin
    let benches = Suite.all () in
    all_cells :=
      List.concat_map
        (fun (b : Suite.t) ->
          List.map
            (fun lf ->
              Printf.printf "  running %s at L.F. %.1f ...\n%!" b.Suite.name lf;
              run_cell b lf)
            laxity_factors)
        benches
  end;
  !all_cells

let table_3 () =
  header "table-3" "Area (normalized) and power (normalized) results";
  Printf.printf
    "Normalization as in the paper: every entry is relative to the flattened,\n\
     area-optimized, 5 V circuit at the same laxity factor. Column A = area-optimized\n\
     then V_dd-scaled; column P = power-optimized.\n\n";
  let t =
    Table.create ~header:[ "circuit"; "row"; "L.F."; "Flat A"; "Flat P"; "Hier A"; "Hier P" ]
  in
  let by_bench = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let cur = try Hashtbl.find by_bench c.bench with Not_found -> [] in
      Hashtbl.replace by_bench c.bench (c :: cur))
    (cells ());
  List.iter
    (fun (b : Suite.t) ->
      let bcells =
        (try Hashtbl.find by_bench b.Suite.name with Not_found -> [])
        |> List.sort (fun a c -> compare a.lf c.lf)
      in
      List.iter
        (fun c ->
          let a0 = c.flat_a_area and p0 = c.flat_a_power5 in
          Table.add_row t
            [
              c.bench;
              "A";
              Table.cell_f ~digits:1 c.lf;
              "1.00";
              Table.cell_f (c.flat_p_area /. a0);
              Table.cell_f (c.hier_a_area /. a0);
              Table.cell_f (c.hier_p_area /. a0);
            ];
          Table.add_row t
            [
              "";
              "P";
              "";
              Table.cell_f (c.flat_a_power_sc /. p0);
              Table.cell_f (c.flat_p_power /. p0);
              Table.cell_f (c.hier_a_power_sc /. p0);
              Table.cell_f (c.hier_p_power /. p0);
            ])
        bcells;
      Table.add_rule t)
    (Suite.all ());
  Table.print t

let table_4 () =
  header "table-4" "Summary of area (ratio), power (ratio) and synthesis time";
  let t =
    Table.create
      ~header:
        [
          "L.F.";
          "Area Fl";
          "Area Hi";
          "Pwr5V Fl";
          "Pwr5V Hi";
          "PwrVsc Fl";
          "PwrVsc Hi";
          "Time Fl (s)";
          "Time Hi (s)";
        ]
  in
  List.iter
    (fun lf ->
      let cs = List.filter (fun c -> c.lf = lf) (cells ()) in
      let avg f = Stats.mean (List.map f cs) in
      Table.add_row t
        [
          Table.cell_f ~digits:1 lf;
          Table.cell_f (avg (fun c -> c.flat_p_area /. c.flat_a_area));
          Table.cell_f (avg (fun c -> c.hier_p_area /. c.flat_a_area));
          Table.cell_f (avg (fun c -> c.flat_p_power /. c.flat_a_power5));
          Table.cell_f (avg (fun c -> c.hier_p_power /. c.flat_a_power5));
          Table.cell_f (avg (fun c -> c.flat_p_power /. c.flat_a_power_sc));
          Table.cell_f (avg (fun c -> c.hier_p_power /. c.flat_a_power_sc));
          Table.cell_f (avg (fun c -> c.flat_time));
          Table.cell_f (avg (fun c -> c.hier_time));
        ])
    laxity_factors;
  Table.print t;
  Printf.printf
    "(Paper's Table 4 shape: power-optimized circuits cost ~25-35%% extra area, consume a\n\
    \ fraction of the 5 V area-optimized power, and hierarchical synthesis is several\n\
    \ times faster than flattened synthesis.)\n"

let headline () =
  header "headline" "Checks of the paper's headline claims";
  let cs = cells () in
  let reduction c = c.flat_a_power5 /. c.hier_p_power in
  let best =
    List.fold_left (fun acc c -> if reduction c > reduction acc then c else acc) (List.hd cs) cs
  in
  Printf.printf
    "1. Max power reduction of hierarchical power-opt vs 5V area-opt: %.1fx (%s, L.F. %.1f)\n"
    (reduction best) best.bench best.lf;
  Printf.printf "   at area overhead %.0f%% over the flat area-optimized circuit\n"
    (100. *. ((best.hier_p_area /. best.flat_a_area) -. 1.));
  Printf.printf "   (paper: up to 6.7x at area overheads not exceeding 50%%)\n";
  let hier_vs_flat_power = Stats.mean (List.map (fun c -> c.hier_p_power /. c.flat_p_power) cs) in
  Printf.printf
    "2. Hierarchical power-opt consumes on average %.1f%% %s power than flattened power-opt\n"
    (100. *. Float.abs (1. -. hier_vs_flat_power))
    (if hier_vs_flat_power <= 1. then "less" else "more");
  Printf.printf "   (paper: 13.3%% less)\n";
  let hier_area_overhead = Stats.mean (List.map (fun c -> c.hier_a_area /. c.flat_a_area) cs) in
  Printf.printf "3. Hierarchical area-opt has %.1f%% area overhead over flattened area-opt\n"
    (100. *. (hier_area_overhead -. 1.));
  Printf.printf "   (paper: 5.6%%)\n";
  let speedup = Stats.mean (List.map (fun c -> c.flat_time /. Float.max 1e-6 c.hier_time) cs) in
  Printf.printf "4. Hierarchical synthesis is %.1fx faster than flattened on average\n" speedup;
  Printf.printf "   (paper: 2.6-3.2x on the SGI Challenge)\n"

(* ------------------------------------------------------------------ *)
(* Ablation: knock out move families and see what degrades.
   DESIGN.md calls these out as the design choices worth isolating:
   resynthesis (move B), RTL embedding (complex-module merging),
   splitting (move D) and algebraic rewriting (move E). *)

let ablation () =
  header "ablation" "Move-family knockouts and move-usage census";
  let variants =
    [
      ("full", config);
      ("no B (resynthesis)", { config with S.enable_resynth = false });
      ("no RTL embedding", { config with S.enable_embed = false });
      ("no D (splitting)", { config with S.enable_split = false });
      ("no E (rewriting)", { config with S.enable_rewrite = false });
      ( "A+C only",
        {
          config with
          S.enable_resynth = false;
          enable_embed = false;
          enable_split = false;
          enable_rewrite = false;
        } );
    ]
  in
  let cases =
    [
      (Suite.test1 (), Cost.Area, 1.2);
      (Suite.test1 (), Cost.Power, 2.2);
      (Suite.iir (), Cost.Power, 2.2);
      (Suite.avenhaus_cascade (), Cost.Power, 2.2);
    ]
  in
  let t =
    Table.create ~header:[ "case"; "engine"; "power"; "area"; "moves A/B/C/D/E"; "synth (s)" ]
  in
  List.iter
    (fun ((b : Suite.t), objective, lf) ->
      let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
      let sampling_ns = lf *. min_ns in
      let case = Printf.sprintf "%s/%s/%.1f" b.Suite.name (Cost.objective_name objective) lf in
      List.iter
        (fun (tag, cfg) ->
          match synthesize ~config:cfg ~lib b.Suite.registry b.Suite.dfg objective ~sampling_ns () with
          | r ->
              let count prefix =
                List.length
                  (List.filter
                     (fun (m : Pass.committed_move) ->
                       String.starts_with ~prefix m.Pass.cm_family)
                     r.S.stats.Pass.committed)
              in
              Table.add_row t
                [
                  case;
                  tag;
                  Table.cell_f ~digits:2 r.S.eval.Cost.power;
                  Table.cell_f ~digits:0 r.S.eval.Cost.area;
                  Printf.sprintf "%d/%d/%d/%d/%d" (count "A:") (count "B:") (count "C:")
                    (count "D:") (count "E:");
                  Table.cell_f ~digits:1 r.S.elapsed_s;
                ]
          | exception Failure _ -> Table.add_row t [ case; tag; "infeasible"; "-"; "-"; "-" ])
        variants;
      Table.add_rule t)
    cases;
  Table.print t;
  Printf.printf
    "Reading: the census shows which families actually fire on the winning trajectory.\n\
     Final quality often ties across knockouts at this problem scale — the families\n\
     partially substitute for each other (e.g. selection of a pre-optimized library\n\
     module can stand in for on-the-fly resynthesis) — but the B knockout is visible on\n\
     the tight-laxity area case, and disabling everything but A+C consistently changes\n\
     the move mix and the reachable designs on larger inputs. Family E fires only on\n\
     datapaths with mult-by-power-of-two taps and long add chains (avenhaus_cascade);\n\
     there the no-E and A+C-only knockouts end strictly worse than full.\n"

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "H-SYN experiment harness (%s effort)\n" (if quick then "quick" else "full");
  if section "table-1" then table_1 ();
  if section "figure-1" then figure_1 ();
  if section "figure-2" then figure_2 ();
  if section "figure-3" || section "table-2" then figure_3 ();
  if section "table-3" then table_3 ();
  if section "table-4" then table_4 ();
  if section "headline" then headline ();
  if section "ablation" then ablation ();
  Printf.printf "\ndone.\n"
