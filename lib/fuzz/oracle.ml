module Rng = Hsyn_util.Rng
module Pool = Hsyn_util.Pool
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Text = Hsyn_dfg.Text
module Flatten = Hsyn_dfg.Flatten
module Library = Hsyn_modlib.Library
module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Trace = Hsyn_eval.Trace
module Sim = Hsyn_eval.Sim
module Embed = Hsyn_embed.Embed
module Initial = Hsyn_core.Initial
module Cost = Hsyn_core.Cost
module Engine = Hsyn_core.Engine
module Budget = Hsyn_core.Budget
module S = Hsyn_core.Synthesize

type t = { name : string; doc : string; check : Rng.t -> Text.program -> (unit, string) result }

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ctx5 = { Design.lib = Library.default; vdd = 5.0; clk_ns = 20.0 }
let ctx3 = { ctx5 with Design.vdd = 3.3 }
let no_complexes (_ : string) : Design.rtl_module list = []

let initial_design ctx (prog : Text.program) =
  Initial.build ctx ~complexes:no_complexes prog.Text.registry (Gen.top_graph prog)

(* Bitwise float equality: differential oracles must flag even
   last-ulp divergence, and nan (= power not computed) must match nan. *)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_eval (a : Cost.eval) (b : Cost.eval) =
  same_float a.Cost.area b.Cost.area
  && same_float a.Cost.power b.Cost.power
  && same_float a.Cost.energy_sample b.Cost.energy_sample
  && a.Cost.makespan = b.Cost.makespan
  && a.Cost.feasible = b.Cost.feasible

let pp_eval (e : Cost.eval) =
  Printf.sprintf "{area=%h; power=%h; energy=%h; makespan=%d; feasible=%b}" e.Cost.area
    e.Cost.power e.Cost.energy_sample e.Cost.makespan e.Cost.feasible

(* ------------------------------------------------------------------ *)
(* roundtrip: print → parse reproduces the program, also under CRLF.  *)

let same_registry (a : Registry.t) (b : Registry.t) =
  let ba = Registry.behaviors a and bb = Registry.behaviors b in
  ba = bb
  && List.for_all
       (fun name ->
         let va = Registry.variants a name and vb = Registry.variants b name in
         List.length va = List.length vb && List.for_all2 Dfg.equal va vb)
       ba

let check_roundtrip _rng (prog : Text.program) =
  let printed = Text.to_string prog in
  let reparse what text =
    match Text.parse_string text with
    | p -> Ok p
    | exception Text.Parse_error (line, msg) ->
        fail "%s: parse error at line %d: %s" what line msg
  in
  let compare what (p : Text.program) =
    if not (same_registry prog.Text.registry p.Text.registry) then
      fail "%s: registry not reproduced" what
    else if not (Dfg.equal (Gen.top_graph prog) (Gen.top_graph p)) then
      fail "%s: top graph not reproduced" what
    else Ok ()
  in
  let* lf = reparse "lf" printed in
  let* () = compare "lf" lf in
  let crlf_text = String.concat "\r\n" (String.split_on_char '\n' printed) in
  let* crlf = reparse "crlf" crlf_text in
  compare "crlf" crlf

(* ------------------------------------------------------------------ *)
(* sched-diff: event-driven kernel ≡ time-stepped reference kernel.   *)

let same_schedule (a : Sched.schedule) (b : Sched.schedule) =
  a.Sched.start = b.Sched.start && a.Sched.avail = b.Sched.avail
  && a.Sched.makespan = b.Sched.makespan
  && a.Sched.feasible = b.Sched.feasible

(* Variants of the initial design, which has one unit per operation
   and one register per value: values moved into the register of an
   earlier value (register anti-edges, and deadlocks when the sharing
   is illegal), and operations moved onto the first unit of their type
   (jobs parked on a busy unit). *)
let share_registers rng (d : Design.t) =
  let value_reg = Array.copy d.Design.value_reg in
  let used = ref [] in
  Array.iteri
    (fun v r ->
      if r >= 0 then
        match !used with
        | _ :: _ when Rng.int rng 3 = 0 -> value_reg.(v) <- Rng.pick rng !used
        | _ -> used := r :: !used)
    d.Design.value_reg;
  { d with Design.value_reg }

let merge_units rng (d : Design.t) =
  let first = Hashtbl.create 8 in
  let node_inst = Array.copy d.Design.node_inst in
  Array.iteri
    (fun id i ->
      if i >= 0 then
        match d.Design.dfg.Dfg.nodes.(id).Dfg.kind, d.Design.insts.(i) with
        | Dfg.Op _, Design.Simple fu -> (
            match Hashtbl.find_opt first fu.Hsyn_modlib.Fu.name with
            | Some i0 when Rng.int rng 2 = 0 -> node_inst.(id) <- i0
            | Some _ -> ()
            | None -> Hashtbl.add first fu.Hsyn_modlib.Fu.name i)
        | _ -> ())
    d.Design.node_inst;
  Design.compact { d with Design.node_inst }

(* The initial design with two of its modules embedded into one, as
   move C does: the first pair of module instances whose behaviors
   differ is merged by [Embed.merge_modules] and the second one's calls
   are rebound onto the first. The merged module has one part per
   behavior, so its profiles must be told apart by behavior. [None]
   when no such pair exists. *)
let embed_modules ctx (d : Design.t) =
  let modules =
    List.filter_map
      (fun i ->
        match d.Design.insts.(i) with
        | Design.Module rm when Design.nodes_on d i <> [] -> Some (i, rm)
        | Design.Module _ | Design.Simple _ -> None)
      (List.init (Array.length d.Design.insts) Fun.id)
  in
  let rec pairs = function
    | [] -> None
    | (i, rmi) :: rest -> (
        match
          List.find_map
            (fun (j, rmj) ->
              Option.map (fun (merged, _) -> (j, merged)) (Embed.merge_modules ctx ~name:"embedded" rmi rmj))
            rest
        with
        | Some (j, merged) ->
            Some
              (Design.compact
                 (Design.with_bindings (Design.with_inst d i (Design.Module merged)) (Design.nodes_on d j) i))
        | None -> pairs rest)
  in
  pairs modules

let check_sched_diff rng (prog : Text.program) =
  let at what ctx d deadline =
    let cs = Sched.relaxed ~deadline d.Design.dfg in
    let reference = Sched_ref.schedule ctx cs d in
    let event = Sched.schedule ctx cs d in
    if same_schedule event reference then Ok reference
    else
      fail
        "%s: vdd=%g deadline=%d: kernels disagree (event makespan=%d feasible=%b, reference \
         makespan=%d feasible=%b)"
        what ctx.Design.vdd deadline event.Sched.makespan event.Sched.feasible
        reference.Sched.makespan reference.Sched.feasible
  in
  (* relaxed, then at the exact makespan and one cycle under it: the
     tight and the infeasible boundary are where the two kernels
     historically diverged *)
  let check_design what ctx d =
    let* relaxed = at what ctx d 10000 in
    let m = relaxed.Sched.makespan in
    let* _ = at what ctx d (max 1 m) in
    let* _ = at what ctx d (max 1 (m - 1)) in
    Ok ()
  in
  let check_ctx ctx =
    let d = initial_design ctx prog in
    let merged = merge_units rng d in
    let* () = check_design "initial" ctx d in
    let* () = check_design "shared registers" ctx (share_registers rng d) in
    let* () = check_design "merged units" ctx merged in
    let* () = check_design "both" ctx (share_registers rng merged) in
    match embed_modules ctx d with
    | Some embedded -> check_design "embedded modules" ctx embedded
    | None -> Ok ()
  in
  let* () = check_ctx ctx5 in
  check_ctx ctx3

(* ------------------------------------------------------------------ *)
(* engine-direct: the evaluation engine is an optimization of the     *)
(* cost oracle, never a change to it.                                 *)

(* Candidate neighborhood of the initial design: functional-unit
   swaps, register re-assignments and module rebindings, kept only
   when still valid. A rebinding moves one call onto a module built
   from another variant of its behavior, or onto the module of the
   behavior's first call. So the engine meets designs of one graph
   whose calls are bound to parts that compute different functions,
   and modules shared by two calls. *)
let candidates ctx registry (d : Design.t) =
  let calls =
    List.filter_map
      (fun id ->
        match d.Design.dfg.Dfg.nodes.(id).Dfg.kind with
        | Dfg.Call behavior -> Some (id, behavior)
        | _ -> None)
      (List.init (Array.length d.Design.dfg.Dfg.nodes) Fun.id)
  in
  let other_variants =
    List.concat_map
      (fun (id, behavior) ->
        List.tl (Registry.variants registry behavior)
        |> List.map (fun (v : Dfg.t) ->
               let part = Initial.build ctx ~complexes:no_complexes registry v in
               let rm = { Design.rm_name = behavior ^ "#" ^ v.Dfg.name; parts = [ (behavior, part) ] } in
               let d', inst = Design.add_inst d (Design.Module rm) in
               Design.compact (Design.with_binding d' id inst)))
      calls
  in
  let shared =
    let first = Hashtbl.create 4 in
    List.filter_map
      (fun (id, behavior) ->
        match Hashtbl.find_opt first behavior with
        | None ->
            Hashtbl.add first behavior id;
            None
        | Some id0 -> Some (Design.compact (Design.with_binding d id d.Design.node_inst.(id0))))
      calls
  in
  let swaps =
    Array.to_list d.Design.insts
    |> List.mapi (fun i kind ->
           match kind with
           | Design.Simple fu ->
               List.map (fun alt -> Design.with_inst d i (Design.Simple alt))
                 (Library.alternatives ctx.Design.lib fu)
           | Design.Module _ -> [])
    |> List.concat
  in
  let regs =
    if d.Design.n_regs < 2 then []
    else
      Array.to_list d.Design.value_reg
      |> List.mapi (fun v r -> if r > 0 then Some (Design.with_value_reg d v (r - 1)) else None)
      |> List.filter_map Fun.id
  in
  let all = d :: swaps @ regs @ other_variants @ shared in
  List.filter (fun c -> Design.validate ctx c = Ok ()) all

let check_engine_direct rng (prog : Text.program) =
  let ctx = ctx5 in
  let d0 = initial_design ctx prog in
  let dfg = d0.Design.dfg in
  let deadline =
    let cs = Sched.relaxed ~deadline:10000 dfg in
    let s = Sched.schedule ctx cs d0 in
    max 1 s.Sched.makespan + Rng.int rng 3
  in
  let cs = Sched.relaxed ~deadline dfg in
  let sampling_ns = float_of_int deadline *. ctx.Design.clk_ns *. 2. in
  let trace =
    Trace.generate (Rng.split rng) Trace.default_kind
      ~n_inputs:(Array.length dfg.Dfg.inputs)
      ~length:4
  in
  let cands = candidates ctx prog.Text.registry d0 in
  let check_objective objective =
    let engine = Engine.create ~ctx ~cs ~sampling_ns ~trace ~objective () in
    let with_power = objective = Cost.Power in
    let direct c = Cost.evaluate ~with_power ctx cs ~sampling_ns ~trace c in
    let rec per_candidate i = function
      | [] -> Ok ()
      | c :: rest ->
          let reference = direct c in
          let got = Engine.evaluate engine c in
          let again = Engine.evaluate engine c in
          if not (same_eval got reference) then
            fail "%s: candidate %d: engine %s <> direct %s" (Cost.objective_name objective) i
              (pp_eval got) (pp_eval reference)
          else if not (same_eval again reference) then
            fail "%s: candidate %d: cached re-evaluation drifted: %s <> %s"
              (Cost.objective_name objective) i (pp_eval again) (pp_eval reference)
          else per_candidate (i + 1) rest
    in
    let* () = per_candidate 0 cands in
    (* best_of must agree with a sequential fold (earliest-wins ties) *)
    let indexed = List.mapi (fun i c -> (i, c)) cands in
    let reference_best =
      List.fold_left
        (fun best (i, c) ->
          let e = direct c in
          if not e.Cost.feasible then best
          else
            let v = Cost.objective_value objective e in
            match best with Some (_, _, bv) when bv <= v -> best | _ -> Some (i, e, v))
        None indexed
    in
    let got_best =
      Engine.best_of engine ~limit:(List.length cands) (List.to_seq indexed)
    in
    match reference_best, got_best with
    | None, None -> Ok ()
    | Some (i, _, _), None -> fail "%s: best_of found nothing, reference picked %d" (Cost.objective_name objective) i
    | None, Some (i, _, _, _) -> fail "%s: best_of picked %d, reference found nothing" (Cost.objective_name objective) i
    | Some (i, e, v), Some (j, _, e', v') ->
        if i <> j then
          fail "%s: best_of picked candidate %d, sequential reference picked %d" (Cost.objective_name objective) j i
        else if not (same_eval e e' && same_float v v') then
          fail "%s: best candidate %d evaluations differ: %s <> %s" (Cost.objective_name objective) i (pp_eval e') (pp_eval e)
        else Ok ()
  in
  let* () = check_objective Cost.Area in
  check_objective Cost.Power

(* ------------------------------------------------------------------ *)
(* Shared small synthesis request for the end-to-end oracles.         *)

let small_request ?(jobs = 1) ~seed (prog : Text.program) =
  let top = Gen.top_graph prog in
  let config =
    {
      S.Config.default with
      S.max_moves = 8;
      max_passes = 1;
      max_candidates = 3;
      trace_length = 4;
      seed;
      vdd_candidates = [ 5.0; 3.3 ];
      max_clocks = 1;
      engine = { Engine.default_policy with Engine.jobs };
    }
  in
  let sampling_ns =
    2.5 *. Float.max 1.0 (S.min_sampling_ns Library.default prog.Text.registry top)
  in
  S.Request.make ~config ~lib:Library.default ~registry:prog.Text.registry ~dfg:top
    ~objective:Cost.Power ~sampling_ns ()

let pp_outcome = function
  | Ok (r : S.result) ->
      Printf.sprintf "Ok{fp=%Ld; eval=%s; vdd=%g; clk=%g; deadline=%d}"
        (Design.fingerprint r.S.design) (pp_eval r.S.eval) r.S.ctx.Design.vdd
        r.S.ctx.Design.clk_ns r.S.deadline_cycles
  | Error e -> Printf.sprintf "Error(%s)" e

let same_outcome a b =
  match a, b with
  | Error ea, Error eb -> ea = eb
  | Ok (ra : S.result), Ok (rb : S.result) ->
      Design.fingerprint ra.S.design = Design.fingerprint rb.S.design
      && same_eval ra.S.eval rb.S.eval
      && ra.S.ctx.Design.vdd = rb.S.ctx.Design.vdd
      && ra.S.ctx.Design.clk_ns = rb.S.ctx.Design.clk_ns
      && ra.S.deadline_cycles = rb.S.deadline_cycles
  | Ok _, Error _ | Error _, Ok _ -> false

(* ------------------------------------------------------------------ *)
(* checkpoint-resume: an interrupted + resumed sweep converges to the *)
(* uninterrupted sweep.                                               *)

let check_checkpoint_resume rng (prog : Text.program) =
  let seed = Rng.int rng 1_000_000 in
  let* req = small_request ~seed prog in
  let full = S.synthesize req in
  let path = Filename.temp_file "hsyn_fuzz" ".ckpt" in
  (* temp_file creates a zero-byte file; keep only the fresh name. An
     interrupted run that never finished a context writes nothing, and
     resume must then be a cold start (missing file), not a load error
     on an empty file no checkpointed run could have produced. *)
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let* budget = Budget.make ~max_contexts:1 () in
      let* limited =
        S.Request.make ~config:req.S.Request.config ~budget ~lib:Library.default
          ~registry:prog.Text.registry ~dfg:req.S.Request.dfg ~objective:Cost.Power
          ~sampling_ns:req.S.Request.sampling_ns ()
      in
      let (_ : (S.result, string) result) = S.synthesize ~checkpoint:path limited in
      let resumed = S.synthesize ~checkpoint:path ~resume:true req in
      if same_outcome full resumed then Ok ()
      else fail "resumed %s <> uninterrupted %s" (pp_outcome resumed) (pp_outcome full))

(* ------------------------------------------------------------------ *)
(* session: a run on a shared, pre-warmed memoization session is      *)
(* bit-identical to a run on a fresh one.                             *)

let check_session rng (prog : Text.program) =
  let seed = Rng.int rng 1_000_000 in
  let* req = small_request ~seed prog in
  let fresh = S.synthesize req in
  (* warm the session with a full run, then synthesize the same request
     again on it: every cache layer (profiles, cost entries —
     including completed power simulations) is hot the second time *)
  let session = Hsyn_core.Session.create () in
  let with_session () =
    S.Request.make ~config:req.S.Request.config ~session ~lib:Library.default
      ~registry:prog.Text.registry ~dfg:req.S.Request.dfg ~objective:Cost.Power
      ~sampling_ns:req.S.Request.sampling_ns ()
  in
  let* warmup_req = with_session () in
  let (_ : (S.result, string) result) = S.synthesize warmup_req in
  let cost_stats () =
    (Hsyn_core.Session.stats session).Hsyn_core.Session.cost_tbl
  in
  let warm = cost_stats () in
  let* shared_req = with_session () in
  let shared = S.synthesize shared_req in
  let rerun = cost_stats () in
  let probes (s : Hsyn_util.Shard_tbl.stats) =
    s.Hsyn_util.Shard_tbl.hits + s.Hsyn_util.Shard_tbl.misses
  in
  if not (same_outcome fresh shared) then
    fail "shared session %s <> fresh session %s" (pp_outcome shared) (pp_outcome fresh)
  else if
    (* a rerun that probed the shared cache at all must hit it — the
       warmup ran the identical trajectory; degenerate programs whose
       sweep prunes every context legitimately probe zero times *)
    probes rerun > probes warm
    && rerun.Hsyn_util.Shard_tbl.hits = warm.Hsyn_util.Shard_tbl.hits
  then
    fail "warmed rerun probed the shared cost cache %d times without a hit"
      (probes rerun - probes warm)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* cache: a session cache saved to disk and reloaded into a fresh     *)
(* session leaves the rerun bit-identical to the cold run.            *)

let check_cache rng (prog : Text.program) =
  let seed = Rng.int rng 1_000_000 in
  let* req = small_request ~seed prog in
  let cold = S.synthesize req in
  let dir = Filename.temp_file "hsyn_fuzz_cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cleanup () =
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir)
     with Sys_error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      (* run A populates and persists its session's cost cache; the
         cache flag itself must not change the answer *)
      let saver = S.synthesize ~cache_dir:dir req in
      let* () =
        if same_outcome cold saver then Ok ()
        else fail "run with cache_dir %s <> plain run %s" (pp_outcome saver) (pp_outcome cold)
      in
      (* reload into a fresh session and rerun: disk-warmed entries, like
         shared in-memory ones, only change which computations run *)
      let session = Hsyn_core.Session.create () in
      match Hsyn_core.Session.load_into session ~lib:Library.default ~dir with
      | Error e -> fail "reload of the saved cache failed: %s" e
      | Ok _loaded ->
          let* warm_req =
            S.Request.make ~config:req.S.Request.config ~session ~lib:Library.default
              ~registry:prog.Text.registry ~dfg:req.S.Request.dfg ~objective:Cost.Power
              ~sampling_ns:req.S.Request.sampling_ns ()
          in
          let warm = S.synthesize warm_req in
          if same_outcome cold warm then Ok ()
          else fail "warm-started %s <> cold %s" (pp_outcome warm) (pp_outcome cold))

(* ------------------------------------------------------------------ *)
(* jobs: results do not depend on the worker count, and the pool maps *)
(* deterministically under exceptions.                                *)

exception Fuzz_boom of int

let check_jobs rng (prog : Text.program) =
  let seed = Rng.int rng 1_000_000 in
  let* req1 = small_request ~jobs:1 ~seed prog in
  let* req2 = small_request ~jobs:2 ~seed prog in
  let r1 = S.synthesize req1 in
  let r2 = S.synthesize req2 in
  if not (same_outcome r1 r2) then fail "jobs=1 %s <> jobs=2 %s" (pp_outcome r1) (pp_outcome r2)
  else begin
    (* pool-level determinism on random data, with and without a raise *)
    let n = 1 + Rng.int rng 32 in
    let arr = Array.init n (fun _ -> Rng.int rng 1000 - 500) in
    let pool = Pool.create 2 in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let got = Pool.map_array pool (fun x -> (x * x) - (3 * x)) arr in
        let want = Array.map (fun x -> (x * x) - (3 * x)) arr in
        if got <> want then fail "pool map_array diverged from Array.map"
        else
          let poison = Rng.int rng n in
          match
            Pool.map_array pool (fun x -> if x = arr.(poison) then raise (Fuzz_boom x) else x) arr
          with
          | (_ : int array) -> fail "poisoned map_array returned instead of raising"
          | exception Fuzz_boom _ ->
              let got = Pool.map_array pool succ arr in
              if got <> Array.map succ arr then fail "pool unusable after a task exception"
              else Ok ()
          | exception e ->
              fail "poisoned map_array raised %s instead of Fuzz_boom" (Printexc.to_string e))
  end

(* ------------------------------------------------------------------ *)
(* embed: merging RTL modules preserves each part's function (checked *)
(* through simulation) and the shared-resource invariants.            *)

let module_of ~rm_name ~part design = { Design.rm_name; parts = [ (part, design) ] }

let check_part rng ctx what (originals : (string * Design.t) list) (m : Design.rtl_module) =
  let rec go = function
    | [] -> Ok ()
    | (bname, (orig : Design.t)) :: rest -> (
        match List.assoc_opt bname m.Design.parts with
        | None -> fail "%s: behavior %s lost by the merge" what bname
        | Some part ->
            let* () =
              match Design.validate ctx part with
              | Ok () -> Ok ()
              | Error e -> fail "%s: merged part %s invalid: %s" what bname e
            in
            let n_inputs = Array.length orig.Design.dfg.Dfg.inputs in
            let trace = Trace.generate (Rng.split rng) Trace.default_kind ~n_inputs ~length:4 in
            let want = Sim.outputs orig (Sim.run orig trace) in
            let got = Sim.outputs part (Sim.run part trace) in
            if got <> want then fail "%s: behavior %s computes differently after the merge" what bname
            else go rest)
  in
  go originals

let check_embed rng (prog : Text.program) =
  let ctx = ctx5 in
  let registry = prog.Text.registry in
  let top = Gen.top_graph prog in
  let build g = Initial.build ctx ~complexes:no_complexes registry g in
  let graphs =
    match Registry.behaviors registry with
    | b0 :: b1 :: _ -> [ Registry.default_variant registry b0; Registry.default_variant registry b1; top ]
    | [ b0 ] -> [ top; Registry.default_variant registry b0; Flatten.flatten registry top ]
    | [] -> [ top; Flatten.flatten registry top; top ]
  in
  let named = List.mapi (fun i g -> (Printf.sprintf "p%d" i, build g)) graphs in
  match named with
  | [ (nl, dl); (nr, dr); (nt, dt) ] -> (
      let ml = module_of ~rm_name:"ML" ~part:nl dl in
      let mr = module_of ~rm_name:"MR" ~part:nr dr in
      match Embed.merge_modules ctx ~name:"M1" ml mr with
      | None -> fail "first merge refused despite distinct behavior names"
      | Some (m1, corr) ->
          let nl_insts = Array.length dl.Design.insts in
          let* () =
            if Design.module_behaviors m1 <> [ nl; nr ] then
              fail "merged module behaviors: got [%s]" (String.concat "; " (Design.module_behaviors m1))
            else Ok ()
          in
          let n_merged =
            Array.length (Design.module_part m1 nl).Design.insts
          in
          let in_range i = i >= 0 && i < n_merged in
          let* () =
            if corr.Embed.left_inst <> Array.init nl_insts Fun.id then
              fail "left instances are not carried over in place"
            else if not (Array.for_all in_range corr.Embed.right_inst) then
              fail "right-instance correspondence out of range"
            else
              let seen = Hashtbl.create 16 in
              let dup = ref None in
              Array.iter
                (fun i ->
                  if Hashtbl.mem seen i then dup := Some i else Hashtbl.add seen i ())
                corr.Embed.right_inst;
              match !dup with
              | Some i -> fail "two right instances mapped onto merged instance %d" i
              | None -> Ok ()
          in
          let* () = check_part rng ctx "merge1" [ (nl, dl); (nr, dr) ] m1 in
          let* () =
            (* the validated-invariant printer must accept the result *)
            let buf = Buffer.create 256 in
            let fmt = Format.formatter_of_buffer buf in
            match Embed.pp_correspondence fmt (ml, mr, m1, corr) with
            | () ->
                Format.pp_print_flush fmt ();
                Ok ()
            | exception Invalid_argument e -> fail "pp_correspondence rejected the merge: %s" e
          in
          (* second merge exercises a multi-part left side *)
          let mt = module_of ~rm_name:"MT" ~part:nt dt in
          match Embed.merge_modules ctx ~name:"M2" m1 mt with
          | None -> fail "second merge refused despite distinct behavior names"
          | Some (m2, _) ->
              check_part rng ctx "merge2" [ (nl, dl); (nr, dr); (nt, dt) ] m2)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* rewrite: every algebraic rewrite candidate simulates bitwise-      *)
(* identically to its original graph on random stimulus.              *)

module Rewrite = Hsyn_dfg.Rewrite

let check_rewrite rng (prog : Text.program) =
  let registry = prog.Text.registry in
  let top = Gen.top_graph prog in
  let n_inputs = Array.length top.Dfg.inputs in
  let trace = Trace.generate (Rng.split rng) Trace.default_kind ~n_inputs ~length:6 in
  (* hierarchical side: an initial design over each rewritten top
     graph must reproduce the original design's output stream *)
  let d0 = initial_design ctx5 prog in
  let want = Sim.outputs d0 (Sim.run d0 trace) in
  let rec hier = function
    | [] -> Ok ()
    | (desc, g') :: rest ->
        let* () =
          match Dfg.validate g' with
          | Ok () -> Ok ()
          | Error e -> fail "%s: rewritten graph invalid: %s" desc e
        in
        let d' = Initial.build ctx5 ~complexes:no_complexes registry g' in
        let got = Sim.outputs d' (Sim.run d' trace) in
        if got <> want then fail "%s: rewritten top graph computes differently" desc
        else hier rest
  in
  let* () = hier (Rewrite.candidates top) in
  (* flat side: flattening exposes longer chains and more sharing, so
     the same check on the flattened graph covers more rewrite sites *)
  let flat = Flatten.flatten registry top in
  let want_flat = Sim.run_flat flat trace in
  let rec flat_go = function
    | [] -> Ok ()
    | (desc, g') :: rest ->
        if Sim.run_flat g' trace <> want_flat then
          fail "%s: rewritten flat graph computes differently" desc
        else flat_go rest
  in
  flat_go (Rewrite.candidates flat)

(* ------------------------------------------------------------------ *)

let all =
  [
    { name = "roundtrip"; doc = "text print/parse round-trip (LF and CRLF)"; check = check_roundtrip };
    { name = "sched-diff"; doc = "event-driven scheduler ≡ reference kernel"; check = check_sched_diff };
    {
      name = "engine-direct";
      doc = "evaluation engine ≡ direct cost evaluation; best_of ≡ sequential fold";
      check = check_engine_direct;
    };
    {
      name = "checkpoint-resume";
      doc = "interrupted + resumed sweep ≡ uninterrupted sweep";
      check = check_checkpoint_resume;
    };
    {
      name = "session";
      doc = "synthesis on a shared pre-warmed session ≡ fresh session";
      check = check_session;
    };
    {
      name = "cache";
      doc = "save/reload of the persisted cost cache leaves a rerun ≡ cold run";
      check = check_cache;
    };
    { name = "jobs"; doc = "synthesis result independent of --jobs; pool exception discipline"; check = check_jobs };
    {
      name = "embed";
      doc = "module merging preserves behavior (via simulation) and shared-resource invariants";
      check = check_embed;
    };
    {
      name = "rewrite";
      doc = "algebraic rewrite candidates ≡ original graph through simulation";
      check = check_rewrite;
    };
  ]

let find name = List.find_opt (fun o -> o.name = name) all
let names = List.map (fun o -> o.name) all
