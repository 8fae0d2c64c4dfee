(* Tests for the scheduler: ASAP behavior, resource serialization,
   multicycle and pipelined units, chain groups, module profiles
   (Example 1 semantics), ALAP slack, critical path. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Registry = Hsyn_dfg.Registry
module B = Hsyn_dfg.Dfg.Builder
module Library = Hsyn_modlib.Library
module Fu = Hsyn_modlib.Fu

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ctx = Tu.ctx () (* 5 V, 20 ns clock: add1=1cy, mult1=3cy *)
let lib = Library.default

let sched ?(cs : Sched.constraints option) d =
  let cs = match cs with Some c -> c | None -> Tu.relaxed_cs d.Design.dfg in
  Sched.schedule ctx cs d

let start sch g label = sch.Sched.start.(Tu.node_id g label)

(* ------------------------------------------------------------------ *)

let test_asap_parallel () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let sch = sched d in
  checki "s1 at 0" 0 (start sch g "s1");
  checki "s2 at 0" 0 (start sch g "s2");
  checki "mult after adds" 1 (start sch g "m");
  checki "makespan = 1 + 3" 4 sch.Sched.makespan;
  checkb "feasible" true sch.Sched.feasible

let test_deadline_infeasible () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let sch = sched ~cs:{ (Tu.relaxed_cs g) with Sched.deadline = 3 } d in
  checkb "too tight" false sch.Sched.feasible

let test_resource_serialization () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i1 = Tu.inst_of d "s1" in
  let d = Design.with_binding d (Tu.node_id g "s2") i1 in
  let d = Design.compact d in
  let sch = sched d in
  let t1 = start sch g "s1" and t2 = start sch g "s2" in
  checkb "adds serialized" true (abs (t1 - t2) >= 1);
  checki "mult waits for both" 2 (start sch g "m");
  checki "makespan" 5 sch.Sched.makespan

let test_multicycle_unit () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i = Tu.inst_of d "s1" in
  let d = Design.with_inst d i (Design.Simple (Library.find_exn lib "add2")) in
  let sch = sched d in
  (* add2 takes 2 cycles, so the mult cannot start before 2 *)
  checki "mult delayed by slow adder" 2 (start sch g "m");
  checki "makespan" 5 sch.Sched.makespan

let test_pipelined_unit () =
  (* two independent mults on one pipelined multiplier: second starts
     one cycle later, not after full latency *)
  let b = B.create "pipe" in
  let a = B.input b "a" and x = B.input b "b" in
  let c = B.input b "c" and d_in = B.input b "d" in
  let m1 = B.op b ~label:"m1" Op.Mult [ a; x ] in
  let m2 = B.op b ~label:"m2" Op.Mult [ c; d_in ] in
  B.output b (B.op b ~label:"s" Op.Add [ m1; m2 ]);
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let pipe = Library.find_exn lib "mult_pipe" in
  let i1 = Tu.inst_of d "m1" in
  let d = Design.with_inst d i1 (Design.Simple pipe) in
  let d = Design.with_binding d (Tu.node_id g "m2") i1 in
  let d = Design.compact d in
  let sch = sched d in
  let t1 = start sch g "m1" and t2 = start sch g "m2" in
  checki "initiation interval 1" 1 (abs (t1 - t2));
  (* non-pipelined comparison *)
  let d2 = Tu.initial ctx g in
  let j1 = Tu.inst_of d2 "m1" in
  let d2 = Design.with_binding d2 (Tu.node_id g "m2") j1 in
  let d2 = Design.compact d2 in
  let sch2 = sched d2 in
  let u1 = start sch2 g "m1" and u2 = start sch2 g "m2" in
  checki "full latency apart" 3 (abs (u1 - u2))

let test_chain_group_single_job () =
  let g = Tu.add_chain_graph () in
  let d = Tu.initial ctx g in
  let chain = Library.find_exn lib "chained_add3" in
  let d, inst = Design.add_inst d (Design.Simple chain) in
  let d =
    List.fold_left
      (fun acc l -> Design.with_binding acc (Tu.node_id g l) inst)
      d [ "s1"; "s2"; "s3" ]
  in
  let d = Design.compact d in
  let sch = sched d in
  checki "whole chain in one cycle" 1 sch.Sched.makespan;
  checki "members share start" (start sch g "s1") (start sch g "s3");
  (* without the chain unit the three serial adds take three cycles *)
  let d0 = Tu.initial ctx g in
  checki "serial adds need 3" 3 (sched d0).Sched.makespan

let test_input_arrivals_shift () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let cs = { (Tu.relaxed_cs g) with Sched.input_arrival = [| 0; 0; 5; 5 |] } in
  let sch = sched ~cs d in
  checki "s1 unaffected" 0 (start sch g "s1");
  checki "s2 waits for arrivals" 5 (start sch g "s2");
  checki "makespan shifted" 9 sch.Sched.makespan

let test_output_deadline_checked () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let ok = { (Tu.relaxed_cs g) with Sched.output_deadline = Some [| 4 |] } in
  checkb "met" true (sched ~cs:ok d).Sched.feasible;
  let tight = { (Tu.relaxed_cs g) with Sched.output_deadline = Some [| 3 |] } in
  checkb "missed" false (sched ~cs:tight d).Sched.feasible

let test_delay_boundary () =
  (* accumulator: y = delay(y) + x; the delay breaks the cycle, its
     input write bounds the makespan *)
  let b = B.create "acc" in
  let x = B.input b "x" in
  let prev, feed = B.delay_feed b ~label:"z" () in
  let s = B.op b ~label:"s" Op.Add [ x; prev ] in
  feed s;
  B.output b s;
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let sch = sched d in
  checki "add starts immediately (delay output at 0)" 0 (start sch g "s");
  checki "makespan covers the state write" 1 sch.Sched.makespan

(* ------------------------------------------------------------------ *)
(* Register serialization: values sharing a register must not overlap *)

let test_register_conflict_unschedulable () =
  (* (a+b)*(c+d): s1 and s2 are both read by the multiplier at its
     start, so they are simultaneously live — forcing them into one
     register must make the design unschedulable, not silently
     wrong *)
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let v1 = Design.value_index g { Dfg.node = Tu.node_id g "s1"; out = 0 } in
  let v2 = Design.value_index g { Dfg.node = Tu.node_id g "s2"; out = 0 } in
  let d = Design.with_value_reg d v2 d.Design.value_reg.(v1) in
  let sch = sched d in
  checkb "conflicting sharing rejected" false sch.Sched.feasible

let test_register_share_serializes () =
  (* ((a+b)+c)+d: s1 dies when s2 reads it at cycle 1, so s1 and s3
     may share a register; the schedule must place s3's write after
     that read and stay feasible *)
  let g = Tu.add_chain_graph () in
  let d = Tu.initial ctx g in
  let v1 = Design.value_index g { Dfg.node = Tu.node_id g "s1"; out = 0 } in
  let v3 = Design.value_index g { Dfg.node = Tu.node_id g "s3"; out = 0 } in
  let d = Design.with_value_reg d v3 d.Design.value_reg.(v1) in
  let sch = sched d in
  checkb "disjoint lifetimes feasible" true sch.Sched.feasible;
  checkb "write ordered after the read" true (sch.Sched.avail.(v3) > start sch g "s2")

(* ------------------------------------------------------------------ *)
(* Module profiles: the paper's Example 1 *)

(* ((a*b) + c) * d on dedicated fastest units: profile {0,0,3,4}/{7}. *)
let sop_module () =
  let b = B.create "sop" in
  let a = B.input b "a" and x = B.input b "b" in
  let c = B.input b "c" and dd = B.input b "d" in
  let m1 = B.op b ~label:"m1" Op.Mult [ a; x ] in
  let s1 = B.op b ~label:"s1" Op.Add [ m1; c ] in
  let m2 = B.op b ~label:"m2" Op.Mult [ s1; dd ] in
  B.output b ~label:"y" m2;
  let inner = B.finish b in
  let part = Tu.initial ctx inner in
  (inner, { Design.rm_name = "SOP"; parts = [ ("sop", part) ] })

let test_module_profile_example1 () =
  let _, rm = sop_module () in
  let p = Sched.module_profile ctx rm "sop" in
  checkb "in_need staggered" true (p.Sched.in_need = [| 0; 0; 3; 4 |]);
  checkb "out_ready" true (p.Sched.out_ready = [| 7 |]);
  checki "busy" 7 p.Sched.busy

let test_module_start_rule () =
  (* Example 1: inputs arriving at 2,5,3,7 -> module starts at
     max(2-0, 5-0, 3-3, 7-4) = 5, output at 12 *)
  let inner, rm = sop_module () in
  let b = B.create "top" in
  let a = B.input b "a" and x = B.input b "b" in
  let c = B.input b "c" and dd = B.input b "d" in
  let call = B.call b ~label:"C" ~behavior:"sop" ~n_out:1 [ a; x; c; dd ] in
  B.output b ~label:"o" call.(0);
  let g = B.finish b in
  let registry = Registry.create () in
  Registry.register registry "sop" inner;
  let d0 = Tu.initial ~registry ctx g in
  (* force the call onto our hand-made module *)
  let d = Design.with_inst d0 (Tu.inst_of d0 "C") (Design.Module rm) in
  let cs = { (Tu.relaxed_cs g) with Sched.input_arrival = [| 2; 5; 3; 7 |] } in
  let sch = Sched.schedule ctx cs d in
  checki "module starts at 5" 5 (start sch g "C");
  checki "output at 12" 12 sch.Sched.makespan

let test_module_serialization () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  (* bind both calls to the same module instance *)
  let i1 = Tu.inst_of d "c1" in
  let d = Design.with_binding d (Tu.node_id g "c2") i1 in
  let d = Design.compact d in
  let sch = sched d in
  let t1 = start sch g "c1" and t2 = start sch g "c2" in
  (* mac busy = mult(3) + add(1) = 4 cycles; c2 depends on c1 anyway *)
  checkb "non-overlapping activations" true (abs (t2 - t1) >= 4);
  checkb "feasible" true sch.Sched.feasible

(* ------------------------------------------------------------------ *)
(* ALAP + critical path *)

let test_alap_slack () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let alap = Sched.alap_start ctx ~deadline:10 d in
  (* mult produces at deadline: latest start 7; adds latest 6 *)
  checki "mult alap" 7 alap.(Tu.node_id g "m");
  checki "add alap" 6 alap.(Tu.node_id g "s1");
  let sch = sched d in
  Array.iteri
    (fun id s -> if s >= 0 then checkb "alap >= asap" true (alap.(id) >= s))
    sch.Sched.start

let test_critical_path_ns () =
  let g = Tu.small_graph () in
  (* add1 (18 ns) + mult1 (55 ns) *)
  Alcotest.check (Alcotest.float 1e-6) "cp" 73.0 (Sched.critical_path_ns lib g)

let test_critical_path_requires_flat () =
  let _, g = Tu.hier_graph () in
  Alcotest.check_raises "flat only"
    (Invalid_argument "Sched.critical_path_ns: graph must be flat") (fun () ->
      ignore (Sched.critical_path_ns lib g))

let test_critical_path_ignores_delay_edges () =
  let b = B.create "rec" in
  let x = B.input b "x" in
  let prev, feed = B.delay_feed b () in
  let s = B.op b Op.Add [ x; prev ] in
  feed s;
  B.output b s;
  let g = B.finish b in
  Alcotest.check (Alcotest.float 1e-6) "one add only" 18.0 (Sched.critical_path_ns lib g)

let test_pp_schedule_smoke () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let sch = sched d in
  let s = Format.asprintf "%a" Sched.pp_schedule (d, sch) in
  checkb "mentions cycles" true (String.length s > 10)

(* Property: scheduling always respects data dependences, on random
   flat graphs with the fully parallel binding. *)
let prop_respects_deps =
  QCheck.Test.make ~name:"schedule respects dependences" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:12 in
      let d = Tu.initial ctx g in
      let sch = sched d in
      let ok = ref sch.Sched.feasible in
      Array.iteri
        (fun dst (node : Dfg.node) ->
          if sch.Sched.start.(dst) >= 0 then
            Array.iter
              (fun (p : Dfg.port) ->
                match g.Dfg.nodes.(p.Dfg.node).Dfg.kind with
                | Dfg.Delay _ -> ()
                | _ ->
                    let v = Design.value_index g p in
                    if sch.Sched.avail.(v) > sch.Sched.start.(dst) then ok := false)
              node.Dfg.ins)
        g.Dfg.nodes;
      !ok)

(* Property: sharing all same-kind operations on single instances is
   still schedulable under a relaxed deadline, and never faster than
   the fully parallel schedule. *)
let prop_shared_no_faster =
  QCheck.Test.make ~name:"resource sharing never shortens the schedule" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:10 in
      let parallel = Tu.initial ctx g in
      let parallel_sch = sched parallel in
      (* bind every op of the same kind to the first instance of that
         kind *)
      let first_of = Hashtbl.create 4 in
      let shared = ref parallel in
      Array.iteri
        (fun id (node : Dfg.node) ->
          match node.Dfg.kind with
          | Dfg.Op op -> (
              match Hashtbl.find_opt first_of op with
              | None -> Hashtbl.add first_of op (!shared).Design.node_inst.(id)
              | Some inst -> shared := Design.with_binding !shared id inst)
          | _ -> ())
        g.Dfg.nodes;
      let shared = Design.compact !shared in
      let shared_sch = sched shared in
      shared_sch.Sched.feasible
      && shared_sch.Sched.makespan >= parallel_sch.Sched.makespan)

(* Property: ALAP bounds are never tighter than the achieved ASAP
   starts when the deadline equals the parallel makespan. *)
let prop_alap_dominates_asap =
  QCheck.Test.make ~name:"alap >= asap at the achieved makespan" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Tu.random_flat_graph seed ~n_inputs:3 ~n_ops:10 in
      let d = Tu.initial ctx g in
      let sch = sched d in
      let alap = Sched.alap_start ctx ~deadline:sch.Sched.makespan d in
      let ok = ref true in
      Array.iteri
        (fun id s -> if s >= 0 && alap.(id) < s then ok := false)
        sch.Sched.start;
      !ok)

(* Allocation guard: minor words per [Sched.schedule] call, made as
   the engine makes it (with a cache that holds the graph's prepared
   context), on the largest flat graph: avenhaus_cascade's initial
   design, and its area-optimized design at L.F. 1.2 under the
   benchmark's reduced effort. The flat-array kernel measured 3 104
   and 2 259 words a call (OCaml 5.1, x86-64), of which 19 are the
   cache lookup; the list-based kernel before it 16 011 and 12 404.
   The bounds leave about 13% for other compilers. *)
let words_per_call ctx cs d =
  let cache = Sched.Cache.create () in
  ignore (Sched.schedule ~cache ctx cs d);
  let calls = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sched.schedule ~cache ctx cs d)
  done;
  (Gc.minor_words () -. before) /. Float.of_int calls

let test_allocation_bound () =
  let module S = Hsyn_core.Synthesize in
  let module Suite = Hsyn_benchmarks.Suite in
  let b = Suite.avenhaus_cascade () in
  let check what words bound =
    if words > bound then Alcotest.failf "%s: %.0f minor words a call, bound %.0f" what words bound
  in
  let flat = Hsyn_dfg.Flatten.flatten b.Suite.registry b.Suite.dfg in
  check "initial" (words_per_call ctx (Tu.relaxed_cs flat) (Tu.initial ctx flat)) 3_500.;
  let config =
    {
      S.default_config with
      S.max_moves = 6;
      max_passes = 2;
      max_candidates = 24;
      trace_length = 8;
      max_clocks = 2;
      clib_effort =
        { Hsyn_core.Clib.default_effort with Hsyn_core.Clib.max_moves = 4; max_passes = 1 };
    }
  in
  let sampling_ns = 1.2 *. S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  match
    Result.bind
      (S.Request.make ~config ~flatten:true ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg
         ~objective:Hsyn_core.Cost.Area ~sampling_ns ())
      S.synthesize
  with
  | Error msg -> Alcotest.failf "synthesis failed: %s" msg
  | Ok r ->
      let d = r.S.design in
      let cs = Sched.relaxed ~deadline:r.S.deadline_cycles d.Design.dfg in
      check "area-optimized" (words_per_call r.S.ctx cs d) 2_550.

(* The makespan lower bound the area selection prunes with is sound:
   at most the kernel's makespan, so a deadline under it schedules
   infeasible. Checked on a design and on its modules' parts, scheduled
   as their profiles are (all inputs at 0, no deadline to speak of). *)
let rec check_bound what ctx (cs : Sched.constraints) (d : Design.t) =
  let lb = Sched.makespan_lower_bound ctx cs d in
  let makespan = (Sched.schedule ctx cs d).Sched.makespan in
  if lb > makespan then Alcotest.failf "%s: bound %d above the makespan %d" what lb makespan;
  if lb > 0 && (Sched.schedule ctx { cs with Sched.deadline = lb - 1 } d).Sched.feasible then
    Alcotest.failf "%s: feasible at deadline %d, under its bound %d" what (lb - 1) lb;
  Array.iter
    (function
      | Design.Simple _ -> ()
      | Design.Module rm ->
          List.iter
            (fun (behavior, (part : Design.t)) ->
              check_bound (what ^ "/" ^ behavior) ctx
                (Sched.relaxed ~deadline:1_000_000 part.Design.dfg)
                part)
            rm.Design.parts)
    d.Design.insts

(* Every suite behavior: its hierarchical and flat initial solutions,
   and the final designs of a flat area synthesis at L.F. 1.2 and of a
   hierarchical power synthesis at L.F. 2.2, at a reduced effort. *)
let test_bound_below_makespan () =
  let module S = Hsyn_core.Synthesize in
  let module Suite = Hsyn_benchmarks.Suite in
  let config =
    {
      S.default_config with
      S.max_moves = 4;
      max_passes = 1;
      max_candidates = 16;
      trace_length = 6;
      max_clocks = 2;
      clib_effort =
        { Hsyn_core.Clib.default_effort with Hsyn_core.Clib.max_moves = 2; max_passes = 1 };
    }
  in
  List.iter
    (fun (b : Suite.t) ->
      let registry = b.Suite.registry and dfg = b.Suite.dfg in
      check_bound (b.Suite.name ^ " initial") ctx (Tu.relaxed_cs dfg) (Tu.initial ~registry ctx dfg);
      let flat = Hsyn_dfg.Flatten.flatten registry dfg in
      check_bound (b.Suite.name ^ " flat initial") ctx (Tu.relaxed_cs flat) (Tu.initial ctx flat);
      let min_ns = S.min_sampling_ns lib registry dfg in
      List.iter
        (fun (what, flatten, objective, lf) ->
          match
            Result.bind
              (S.Request.make ~config ~flatten ~lib ~registry ~dfg ~objective
                 ~sampling_ns:(lf *. min_ns) ())
              S.synthesize
          with
          | Error msg -> Alcotest.failf "%s %s: synthesis failed: %s" b.Suite.name what msg
          | Ok r ->
              let d = r.S.design in
              check_bound
                (Printf.sprintf "%s %s" b.Suite.name what)
                r.S.ctx
                (Sched.relaxed ~deadline:r.S.deadline_cycles d.Design.dfg)
                d)
        [
          ("flat area", true, Hsyn_core.Cost.Area, 1.2);
          ("hierarchical power", false, Hsyn_core.Cost.Power, 2.2);
        ])
    (Suite.all ())

(* The kernel counts in the metrics registry: disarmed, a schedule moves
   no counter; armed, one schedule of a flat design counts one schedule
   and its queue pops, and a snapshot carries the count. *)
let test_counters_armed_only () =
  let module Metrics = Hsyn_obs.Metrics in
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let cs = Tu.relaxed_cs d.Design.dfg in
  let cache = Sched.Cache.create () in
  Metrics.reset ();
  let before = Sched.stats () in
  ignore (Sched.schedule ~cache ctx cs d);
  checkb "disarmed: nothing moves" true (Sched.sub_stats (Sched.stats ()) before = Sched.zero_stats);
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let before = Sched.stats () in
  ignore (Sched.schedule ~cache ctx cs d);
  let delta = Sched.sub_stats (Sched.stats ()) before in
  checki "armed: one schedule" 1 delta.Sched.schedules;
  checkb "armed: events popped" true (delta.Sched.events_popped > 0);
  let counters = Option.get (Hsyn_util.Json.member "counters" (Metrics.snapshot ())) in
  checkb "in the snapshot" true
    (Option.bind (Hsyn_util.Json.member "sched.schedules" counters) Hsyn_util.Json.to_int_opt
    = Some 1)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sched"
    [
      ( "basic",
        [
          tc "asap parallel" test_asap_parallel;
          tc "deadline infeasible" test_deadline_infeasible;
          tc "resource serialization" test_resource_serialization;
          tc "multicycle unit" test_multicycle_unit;
          tc "pipelined unit" test_pipelined_unit;
          tc "chain group" test_chain_group_single_job;
          tc "input arrivals" test_input_arrivals_shift;
          tc "output deadlines" test_output_deadline_checked;
          tc "delay boundary" test_delay_boundary;
          tc "register conflict unschedulable" test_register_conflict_unschedulable;
          tc "register share serializes" test_register_share_serializes;
          QCheck_alcotest.to_alcotest prop_respects_deps;
          QCheck_alcotest.to_alcotest prop_shared_no_faster;
          QCheck_alcotest.to_alcotest prop_alap_dominates_asap;
        ] );
      ( "profiles",
        [
          tc "example 1 profile" test_module_profile_example1;
          tc "example 1 start rule" test_module_start_rule;
          tc "module serialization" test_module_serialization;
        ] );
      ( "analysis",
        [
          tc "bound below makespan" test_bound_below_makespan;
          tc "alap slack" test_alap_slack;
          tc "critical path ns" test_critical_path_ns;
          tc "critical path requires flat" test_critical_path_requires_flat;
          tc "critical path ignores delays" test_critical_path_ignores_delay_edges;
          tc "pp smoke" test_pp_schedule_smoke;
        ] );
      ("alloc", [ tc "minor words per call" test_allocation_bound ]);
      ("counters", [ tc "counted only while armed" test_counters_armed_only ]);
    ]
