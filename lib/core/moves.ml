module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Registry = Hsyn_dfg.Registry
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Fu = Hsyn_modlib.Fu
module Library = Hsyn_modlib.Library
module Embed = Hsyn_embed.Embed

type kind = Select | Resynthesize | Merge | Split | Rewrite

(* The single source of truth for the move-family universe: variant,
   display name, one-line description. Everything that enumerates
   families — [kind_name], pass statistics, reports, docs — derives
   from this table, so adding a family cannot silently desynchronize a
   hard-coded list elsewhere. *)
let all_kinds =
  [
    (Select, "A:select", "module selection");
    (Resynthesize, "B:resynth", "resynthesis under environment constraints");
    (Merge, "C:merge", "merging / resource sharing");
    (Split, "D:split", "resource splitting");
    (Rewrite, "E:rewrite", "algebraic datapath rewriting");
  ]

let kind_name k =
  let _, name, _ = List.find (fun (k', _, _) -> k' = k) all_kinds in
  name

(* each family's engine counters, resolved once *)
let engine_families = List.map (fun (k, name, _) -> (k, Engine.family name)) all_kinds

type t = {
  kind : kind;
  description : string;
  candidate : Design.t;
  eval : Cost.eval;
  gain : float;
}

type env = {
  engine : Engine.t;
  registry : Registry.t;
  complexes : string -> Design.rtl_module list;
  resynth : (string -> Sched.constraints -> Design.t -> Design.t) option;
  max_candidates : int;
  allow_embed : bool;
  allow_split : bool;
  allow_rewrite : bool;
  mutable fresh_names : int;
  mutable rewrites : rewrites option;
}

(* Family E's rewrites of one graph: [Rewrite_dfg.candidates] (a pure
   function of the graph) with the label index that [rebind_rewritten]
   reads. *)
and rewrites = {
  rw_dfg : Dfg.t;  (* the graph they rewrite, compared physically *)
  rw_list : rewrite list;
  by_label : (string, int) Hashtbl.t;
  call_free : bool;  (* [rw_dfg] has no call node, so neither has a rewrite *)
}

(* One rewrite and, for a call-free graph, the gate's verdict on it
   once simulated: it then depends only on the two graphs and the
   env's trace, all fixed for the entry. *)
and rewrite = { description : string; graph : Dfg.t; mutable verdict : bool option }

let make_env ?resynth engine ~registry ~complexes ~max_candidates ~allow_embed ~allow_split
    ~allow_rewrite =
  {
    engine;
    registry;
    complexes;
    resynth;
    max_candidates;
    allow_embed;
    allow_split;
    allow_rewrite;
    fresh_names = 0;
    rewrites = None;
  }

(* The evaluation context is the engine's. *)
let ctx env = Engine.ctx env.engine
let cs env = Engine.constraints env.engine

let fresh_name env base =
  env.fresh_names <- env.fresh_names + 1;
  Printf.sprintf "%s~%d" base env.fresh_names

(* Scheduling done by generators (not via the engine) still goes
   through the session's scheduler cache. *)
let sched_cache env = Session.sched_cache (Engine.session env.engine)

(* Candidates are produced lazily — [(kind, description), design]
   sequences — so the per-family truncation in [best_of] also bounds
   generation work (nested resynthesis, RTL embedding), not just
   evaluation. All evaluation goes through the engine: memoized,
   staged, batched over the worker pool. *)
type candidate = (kind * string) * Design.t

let best_of env cur_value (candidates : candidate Seq.t) =
  match
    Engine.best_of env.engine
      ~family:(fun (kind, _) -> List.assq kind engine_families)
      ~limit:env.max_candidates candidates
  with
  | None -> None
  | Some ((kind, description), candidate, eval, value) ->
      Some { kind; description; candidate; eval; gain = cur_value -. value }

(* ------------------------------------------------------------------ *)
(* Helpers on designs *)

let single_behavior (rm : Design.rtl_module) =
  match rm.Design.parts with [ (b, _) ] -> Some b | _ -> None

(* [f acc reader at_avail] over the readers of value [v], from the
   graph's index: [at_avail] marks an Output or Delay, which reads the
   value when it becomes available. *)
let fold_readers (dfg : Dfg.t) v f acc =
  let ix = dfg.Dfg.index in
  let acc = ref acc in
  for c = ix.Dfg.reader_off.(v) to ix.Dfg.reader_off.(v + 1) - 1 do
    acc := f !acc ix.Dfg.readers.(c) ix.Dfg.reader_at_avail.(c)
  done;
  !acc

(* Rebind all nodes from instance [j] onto [i] with merged unit type,
   then drop [j]. [by_inst] is [Design.nodes_by_inst d]. *)
let merge_simple d by_inst i j merged_kind =
  Design.compact (Design.with_bindings (Design.with_inst d i merged_kind) by_inst.(j) i)

(* Indices of the used module instances, ascending. *)
let used_modules (d : Design.t) by_inst =
  List.filter
    (fun i ->
      by_inst.(i) <> []
      && match d.Design.insts.(i) with Design.Module _ -> true | Design.Simple _ -> false)
    (List.init (Array.length d.Design.insts) Fun.id)

(* ------------------------------------------------------------------ *)
(* Move family A: module selection *)

let select_candidates env (d : Design.t) : candidate Seq.t =
  let lib = (ctx env).Design.lib in
  (* rank unit swaps by how much objective they can plausibly win, so
     truncation in [best_of] keeps the promising ones: big capacitance
     cuts first for power, big area cuts first for area *)
  let swap_score uses (old_fu : Fu.t) (alt : Fu.t) =
    match Engine.objective env.engine with
    | Cost.Power -> Float.of_int uses *. (old_fu.Fu.energy_cap -. alt.Fu.energy_cap)
    | Cost.Area -> old_fu.Fu.area -. alt.Fu.area
  in
  let by_inst = Design.nodes_by_inst d in
  let simple =
    List.concat
      (List.init (Array.length d.Design.insts) (fun i ->
           if by_inst.(i) = [] then []
           else
             match d.Design.insts.(i) with
             | Design.Simple fu ->
                 let uses = List.length by_inst.(i) in
                 List.map
                   (fun alt ->
                     ( swap_score uses fu alt,
                       ( (Select, Printf.sprintf "I%d %s -> %s" i fu.Fu.name alt.Fu.name),
                         Design.with_inst d i (Design.Simple alt) ) ))
                   (Library.alternatives lib fu)
             | Design.Module _ -> []))
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  let complex =
    List.concat
      (List.init (Array.length d.Design.insts) (fun i ->
           if by_inst.(i) = [] then []
           else
             match d.Design.insts.(i) with
             | Design.Module rm -> (
                 match single_behavior rm with
                 | None -> []
                 | Some b ->
                     env.complexes b
                     |> List.filter (fun (rm' : Design.rtl_module) ->
                            rm'.Design.rm_name <> rm.Design.rm_name)
                     |> List.map (fun rm' ->
                            ( ( Select,
                                Printf.sprintf "I%d %s -> %s" i rm.Design.rm_name
                                  rm'.Design.rm_name ),
                              Design.with_inst d i (Design.Module rm') )))
             | Design.Simple _ -> []))
  in
  List.to_seq (simple @ complex)

(* ------------------------------------------------------------------ *)
(* Move family B: resynthesis under environment constraints *)

let resynth_candidates env (d : Design.t) : candidate Seq.t =
  match env.resynth with
  | None -> Seq.empty
  | Some resynth ->
      let dfg = d.Design.dfg in
      let ctx = ctx env and deadline = (cs env).Sched.deadline in
      (* schedule and ALAP are shared by all instances but only
         computed if some candidate is pulled *)
      let pre =
        lazy
          ( Sched.schedule ~cache:(sched_cache env) ctx (cs env) d,
            Sched.alap_start ~cache:(sched_cache env) ctx ~deadline d )
      in
      Seq.init (Array.length d.Design.insts) Fun.id
      |> Seq.concat_map (fun i ->
             match d.Design.insts.(i) with
             | Design.Simple _ -> Seq.empty
             | Design.Module rm -> (
                 match (single_behavior rm, Design.nodes_on d i) with
                 | Some behavior, [ call ] ->
                     (* the nested synthesis is the expensive part:
                        defer it until this element is demanded *)
                     fun () ->
                       let sch, alap = Lazy.force pre in
                       let node = dfg.Dfg.nodes.(call) in
                       let arrivals =
                         Array.map
                           (fun p -> sch.Sched.avail.(Design.value_index dfg p))
                           node.Dfg.ins
                       in
                       let latest_out out =
                         fold_readers dfg
                           (Design.value_index dfg { Dfg.node = call; out })
                           (fun acc c at_avail ->
                             if at_avail then min acc deadline else min acc (max 0 alap.(c)))
                           deadline
                       in
                       let outs = Array.init node.Dfg.n_out latest_out in
                       let base = Array.fold_left min max_int arrivals in
                       let base = if base = max_int then 0 else base in
                       let rel_arr = Array.map (fun a -> a - base) arrivals in
                       let rel_out = Array.map (fun o -> max 1 (o - base)) outs in
                       let inner_deadline = Array.fold_left max 1 rel_out in
                       let inner_cs =
                         {
                           Sched.input_arrival = rel_arr;
                           output_deadline = Some rel_out;
                           deadline = inner_deadline;
                         }
                       in
                       let part = Design.module_part rm behavior in
                       let part' = resynth behavior inner_cs part in
                       if part' == part then Seq.Nil
                       else
                         let rm' =
                           {
                             Design.rm_name = fresh_name env rm.Design.rm_name;
                             parts = [ (behavior, part') ];
                           }
                         in
                         Seq.Cons
                           ( ( ( Resynthesize,
                                 Printf.sprintf "I%d resynthesize %s under slack" i
                                   rm.Design.rm_name ),
                               Design.with_inst d i (Design.Module rm') ),
                             Seq.empty )
                 | _ -> Seq.empty))

(* ------------------------------------------------------------------ *)
(* Move family C: merging / resource sharing *)

let simple_pairs (d : Design.t) by_inst =
  let n = Array.length d.Design.insts in
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if by_inst.(i) <> [] && by_inst.(j) <> [] then
        match d.Design.insts.(i), d.Design.insts.(j) with
        | Design.Simple fi, Design.Simple fj when not (Fu.is_chain fi || Fu.is_chain fj) ->
            if Fu.compatible fi fj then pairs := (i, j, Design.Simple fi) :: !pairs
            else if Fu.compatible fj fi then pairs := (i, j, Design.Simple fj) :: !pairs
        | _ -> ()
    done
  done;
  (* largest area saving first *)
  let saved (i, j, merged) =
    let area = function Design.Simple fu -> fu.Fu.area | Design.Module _ -> 0. in
    area d.Design.insts.(i) +. area d.Design.insts.(j) -. area merged
  in
  List.sort (fun a b -> compare (saved b) (saved a)) !pairs

let merge_simple_candidates (d : Design.t) : candidate Seq.t =
  let by_inst = Design.nodes_by_inst d in
  List.to_seq (simple_pairs d by_inst)
  |> Seq.map (fun (i, j, merged) ->
         ((Merge, Printf.sprintf "share I%d+I%d" i j), merge_simple d by_inst i j merged))

(* Chain fusion: nodes a -> b (both additions on separate plain units)
   fused onto a chained adder; extended to three for chained_add3. *)
let chain_candidates env (d : Design.t) : candidate Seq.t =
  let lib = (ctx env).Design.lib in
  let dfg = d.Design.dfg in
  let is_plain_add id =
    dfg.Dfg.nodes.(id).Dfg.kind = Dfg.Op Op.Add
    && d.Design.node_inst.(id) >= 0
    &&
    match d.Design.insts.(d.Design.node_inst.(id)) with
    | Design.Simple fu -> not (Fu.is_chain fu)
    | Design.Module _ -> false
  in
  let fuse nodes chain_fu =
    (* allocate the chain instance, rebind members, unregister
       chain-internal values consumed nowhere else *)
    let d', inst = Design.add_inst d (Design.Simple chain_fu) in
    let d' = Design.with_bindings d' nodes inst in
    let d' =
      List.fold_left
        (fun acc id ->
          let v = Design.value_index dfg { Dfg.node = id; out = 0 } in
          let internal_only =
            dfg.Dfg.index.Dfg.reader_off.(v) < dfg.Dfg.index.Dfg.reader_off.(v + 1)
            && fold_readers dfg v (fun ok c _ -> ok && List.mem c nodes) true
          in
          if internal_only then Design.with_value_reg acc v (-1) else acc)
        d' nodes
    in
    Design.compact d'
  in
  let pairs = ref [] in
  Array.iteri
    (fun b (node : Dfg.node) ->
      if is_plain_add b then
        Array.iter
          (fun ({ Dfg.node = a; _ } : Dfg.port) ->
            if is_plain_add a && d.Design.node_inst.(a) <> d.Design.node_inst.(b) then
              pairs := (a, b) :: !pairs)
          node.Dfg.ins)
    dfg.Dfg.nodes;
  let two =
    match Library.chains_for lib Op.Add 2 with
    | [] -> Seq.empty
    | chain :: _ ->
        List.to_seq !pairs
        |> Seq.map (fun (a, b) ->
               ( ( Merge,
                   Printf.sprintf "chain %s+%s on %s" dfg.Dfg.nodes.(a).Dfg.label
                     dfg.Dfg.nodes.(b).Dfg.label chain.Fu.name ),
                 fuse [ a; b ] chain ))
  in
  let three =
    match Library.chains_for lib Op.Add 3 with
    | [] -> Seq.empty
    | chain :: _ ->
        List.to_seq !pairs
        |> Seq.concat_map (fun (a, b) ->
               List.to_seq !pairs
               |> Seq.filter_map (fun (b', c) ->
                      if b' = b && c <> a && is_plain_add c then
                        Some
                          ( ( Merge,
                              Printf.sprintf "chain3 %s+%s+%s" dfg.Dfg.nodes.(a).Dfg.label
                                dfg.Dfg.nodes.(b).Dfg.label dfg.Dfg.nodes.(c).Dfg.label ),
                            fuse [ a; b; c ] chain )
                      else None))
  in
  Seq.append two three

(* Behaviors actually invoked by an instance's bound nodes. *)
let behaviors_used (d : Design.t) nodes =
  nodes
  |> List.filter_map (fun id ->
         match d.Design.dfg.Dfg.nodes.(id).Dfg.kind with Dfg.Call b -> Some b | _ -> None)
  |> List.sort_uniq compare

(* Time-multiplex the calls of instance [j] onto instance [i] when
   [i]'s module already implements every behavior [j] executes — the
   sharing counterpart of simple-unit merging, and the main source of
   area recovery on hierarchical inputs (seven butterflies on one
   butterfly module). No embedding needed. *)
let module_share_candidates (d : Design.t) : candidate Seq.t =
  let by_inst = Design.nodes_by_inst d in
  let mods = used_modules d by_inst in
  let needed = Array.make (Array.length d.Design.insts) [] in
  List.iter (fun j -> needed.(j) <- behaviors_used d by_inst.(j)) mods;
  let pairs = ref [] in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if i <> j then
            match d.Design.insts.(i), d.Design.insts.(j) with
            | Design.Module rmi, Design.Module rmj ->
                if
                  needed.(j) <> []
                  && List.for_all (fun b -> List.mem_assoc b rmi.Design.parts) needed.(j)
                  && (i < j || rmi.Design.rm_name <> rmj.Design.rm_name)
                then pairs := (i, j, rmi, rmj) :: !pairs
            | _ -> ())
        mods)
    mods;
  List.to_seq !pairs
  |> Seq.map (fun (i, j, rmi, rmj) ->
         ( ( Merge,
             Printf.sprintf "multiplex I%d(%s) onto I%d(%s)" j rmj.Design.rm_name i
               rmi.Design.rm_name ),
           Design.compact (Design.with_bindings d by_inst.(j) i) ))

(* Complex-module merging via RTL embedding. The embedding itself is
   deferred per pair, so candidates beyond the truncation limit cost
   nothing. *)
let module_merge_candidates env (d : Design.t) : candidate Seq.t =
  let by_inst = Design.nodes_by_inst d in
  let mods = used_modules d by_inst in
  let pairs = ref [] in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if i < j then
            match d.Design.insts.(i), d.Design.insts.(j) with
            | Design.Module rmi, Design.Module rmj -> pairs := (i, j, rmi, rmj) :: !pairs
            | _ -> ())
        mods)
    mods;
  List.to_seq !pairs
  |> Seq.filter_map (fun (i, j, rmi, rmj) ->
         match
           Embed.merge_modules (ctx env)
             ~name:(fresh_name env (rmi.Design.rm_name ^ "+" ^ rmj.Design.rm_name))
             rmi rmj
         with
         | None -> None
         | Some (merged, _) ->
             let d' =
               Design.with_bindings (Design.with_inst d i (Design.Module merged)) by_inst.(j) i
             in
             Some
               ( ( Merge,
                   Printf.sprintf "embed I%d(%s)+I%d(%s)" i rmi.Design.rm_name j
                     rmj.Design.rm_name ),
                 Design.compact d' ))

(* Left-edge register re-allocation: one global candidate. *)
let left_edge_candidate env (d : Design.t) : candidate Seq.t =
 fun () ->
  let dfg = d.Design.dfg in
  let sch = Sched.schedule ~cache:(sched_cache env) (ctx env) (cs env) d in
  if not sch.Sched.feasible then Seq.Nil
  else begin
    let nv = Design.n_values dfg in
    (* values that must keep private registers: delay state *)
    let is_delay_value v =
      let ({ Dfg.node; _ } : Dfg.port) = Design.value_of_index dfg v in
      match dfg.Dfg.nodes.(node).Dfg.kind with Dfg.Delay _ -> true | _ -> false
    in
    let lifetime v =
      let birth = sch.Sched.avail.(v) in
      let death =
        fold_readers dfg v
          (fun acc c at_avail ->
            (* an Output or Delay consumes on availability *)
            max acc (if at_avail then birth else max sch.Sched.start.(c) birth))
          birth
      in
      (birth, death)
    in
    let shareable = ref [] and fixed = ref [] in
    for v = 0 to nv - 1 do
      if d.Design.value_reg.(v) >= 0 then
        if is_delay_value v then fixed := v :: !fixed else shareable := v :: !shareable
    done;
    let sorted =
      List.map (fun v -> (lifetime v, v)) !shareable
      |> List.sort (fun ((b1, _), v1) ((b2, _), v2) ->
             match compare b1 b2 with 0 -> compare v1 v2 | c -> c)
    in
    let value_reg = Array.make nv (-1) in
    let next_reg = ref 0 in
    List.iter
      (fun v ->
        value_reg.(v) <- !next_reg;
        incr next_reg)
      (List.rev !fixed);
    let reg_free = Hsyn_util.Vec.create () in
    (* reg_free.(k) = death time of last value in shareable register k *)
    let assign ((birth, death), v) =
      let n = Hsyn_util.Vec.length reg_free in
      let rec find k =
        if k >= n then begin
          ignore (Hsyn_util.Vec.push reg_free death);
          value_reg.(v) <- !next_reg + k
        end
        else if Hsyn_util.Vec.get reg_free k <= birth then begin
          Hsyn_util.Vec.set reg_free k death;
          value_reg.(v) <- !next_reg + k
        end
        else find (k + 1)
      in
      find 0
    in
    List.iter assign sorted;
    let n_regs = !next_reg + Hsyn_util.Vec.length reg_free in
    let d' = { d with Design.value_reg; n_regs } in
    Seq.Cons (((Merge, "left-edge register re-allocation"), d'), Seq.empty)
  end

let merge_candidates env d : candidate Seq.t =
  (* the left-edge register move first: single cheap candidate that
     must never fall to truncation *)
  Seq.append (left_edge_candidate env d)
    (Seq.append (merge_simple_candidates d)
       (Seq.append (chain_candidates env d)
          (Seq.append (module_share_candidates d)
             (if env.allow_embed then module_merge_candidates env d else Seq.empty))))

(* ------------------------------------------------------------------ *)
(* Move family D: splitting *)

let split_candidates env (d : Design.t) : candidate Seq.t =
  let sch = lazy (Sched.schedule ~cache:(sched_cache env) (ctx env) (cs env) d) in
  let by_inst = lazy (Design.nodes_by_inst d) in
  Seq.init (Array.length d.Design.insts) Fun.id
  |> Seq.concat_map (fun i ->
         let nodes = (Lazy.force by_inst).(i) in
         let name =
           match d.Design.insts.(i) with
           | Design.Simple fu when not (Fu.is_chain fu) -> Some fu.Fu.name
           | Design.Simple _ -> None
           | Design.Module rm -> Some rm.Design.rm_name
         in
         match name with
         | Some name when List.length nodes >= 2 ->
             fun () ->
               let sch = Lazy.force sch in
               let ordered =
                 List.sort (fun a b -> compare sch.Sched.start.(a) sch.Sched.start.(b)) nodes
               in
               let odd = List.filteri (fun k _ -> k mod 2 = 1) ordered in
               let d', inst = Design.add_inst d d.Design.insts.(i) in
               let d' = Design.with_bindings d' odd inst in
               Seq.Cons (((Split, Printf.sprintf "split I%d (%s)" i name), d'), Seq.empty)
         | _ -> Seq.empty)

(* ------------------------------------------------------------------ *)
(* Move family E: algebraic datapath rewriting *)

module Rewrite_dfg = Hsyn_dfg.Rewrite
module Sim = Hsyn_eval.Sim
module Metrics = Hsyn_obs.Metrics

(* Rebind a rewritten graph onto the current design's resources.
   Nodes surviving the rewrite — matched by label with an unchanged
   kind — keep their instance binding and register; new nodes get the
   fastest supporting unit and fresh registers. Returns [None] when
   the result does not validate (e.g. a rewrite broke a chained-unit
   binding, or the library has no unit for an introduced operation).
   [by_label] maps the current graph's labels to node ids; it is shared
   by every rewrite of one graph. *)
let rebind_rewritten env (d : Design.t) ~by_label (g' : Dfg.t) =
  let dfg = d.Design.dfg in
  let extra = ref [] and n_extra = ref 0 in
  let base = Array.length d.Design.insts in
  let add_inst k =
    extra := k :: !extra;
    incr n_extra;
    base + !n_extra - 1
  in
  match
    Array.map
      (fun (node : Dfg.node) ->
        match node.Dfg.kind with
        | Dfg.Op op -> (
            match Hashtbl.find_opt by_label node.Dfg.label with
            | Some orig
              when dfg.Dfg.nodes.(orig).Dfg.kind = node.Dfg.kind
                   && d.Design.node_inst.(orig) >= 0 ->
                d.Design.node_inst.(orig)
            | _ -> add_inst (Design.Simple (Library.fastest_for (ctx env).Design.lib op)))
        | Dfg.Call _ -> (
            match Hashtbl.find_opt by_label node.Dfg.label with
            | Some orig when dfg.Dfg.nodes.(orig).Dfg.kind = node.Dfg.kind ->
                d.Design.node_inst.(orig)
            | _ -> raise Exit)
        | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> -1)
      g'.Dfg.nodes
  with
  | exception Exit -> None
  | exception Not_found -> None
  | node_inst ->
      let value_reg = Array.make (Design.n_values g') (-1) in
      let next = ref d.Design.n_regs in
      Array.iteri
        (fun id (node : Dfg.node) ->
          for out = 0 to node.Dfg.n_out - 1 do
            match node.Dfg.kind with
            | Dfg.Const _ | Dfg.Output -> ()
            | Dfg.Input | Dfg.Op _ | Dfg.Call _ | Dfg.Delay _ -> (
                let v = Design.value_index g' { Dfg.node = id; out } in
                let preserved =
                  match Hashtbl.find_opt by_label node.Dfg.label with
                  | Some orig when dfg.Dfg.nodes.(orig).Dfg.n_out > out ->
                      let r =
                        d.Design.value_reg.(Design.value_index dfg { Dfg.node = orig; out })
                      in
                      if r >= 0 then Some r else None
                  | _ -> None
                in
                match preserved with
                | Some r -> value_reg.(v) <- r
                | None ->
                    value_reg.(v) <- !next;
                    incr next)
          done)
        g'.Dfg.nodes;
      let insts = Array.append d.Design.insts (Array.of_list (List.rev !extra)) in
      let d' = { Design.dfg = g'; insts; node_inst; value_reg; n_regs = !next } in
      let d' = Design.compact d' in
      (match Design.validate (ctx env) d' with Ok () -> Some d' | Error _ -> None)

(* The rewrites of [dfg]: the env's memo when it holds [dfg] itself,
   else computed and kept there in place of the last graph's. Moves
   between two committed rewrites see one graph, so they share its
   rewritten graphs, and with them each graph's index and the graph
   memory of their cost-cache entries. *)
let rewrites_of env (dfg : Dfg.t) =
  match env.rewrites with
  | Some rw when rw.rw_dfg == dfg -> rw
  | _ ->
      let n = Array.length dfg.Dfg.nodes in
      let by_label = Hashtbl.create n in
      Array.iteri
        (fun i (node : Dfg.node) -> Hashtbl.replace by_label node.Dfg.label i)
        dfg.Dfg.nodes;
      let rw_list =
        List.map
          (fun (description, graph) -> { description; graph; verdict = None })
          (Rewrite_dfg.candidates dfg)
      in
      let rw = { rw_dfg = dfg; rw_list; by_label; call_free = Dfg.n_calls dfg = 0 } in
      env.rewrites <- Some rw;
      rw

(* Every candidate passes a mandatory bitwise-equivalence gate: the
   rewritten design is simulated on the environment trace and must
   reproduce the original design's output stream exactly. A candidate
   failing the gate is dropped here — it can be rejected but never
   committed. Rebinding comes first, then the gate. On a call-free
   graph the gate keeps its verdict in the rewrite, so each rewrite is
   simulated once per memo entry; with calls the outputs depend on the
   bound parts, so it simulates on every move. *)
let rewrite_simulated = Metrics.counter "moves.rewrite.simulated"
let rewrite_candidates_seen = Metrics.counter "moves.rewrite.candidates"
let rewrite_rejected_bind = Metrics.counter "moves.rewrite.rejected_bind"
let rewrite_rejected_sim = Metrics.counter "moves.rewrite.rejected_sim"

let rewrite_candidates env (d : Design.t) : candidate Seq.t =
  let trace = Engine.trace env.engine in
  let reference = lazy (Sim.outputs d (Sim.run d trace)) in
  let rw = rewrites_of env d.Design.dfg in
  let gate d' =
    Metrics.incr rewrite_simulated;
    match Sim.outputs d' (Sim.run d' trace) with
    | outs -> outs = Lazy.force reference
    | exception Invalid_argument _ -> false
  in
  List.to_seq rw.rw_list
  |> Seq.filter_map (fun r ->
         Metrics.incr rewrite_candidates_seen;
         match rebind_rewritten env d ~by_label:rw.by_label r.graph with
         | None ->
             Metrics.incr rewrite_rejected_bind;
             None
         | Some d' ->
             let passed =
               match r.verdict with
               | Some v -> v
               | None ->
                   let v = gate d' in
                   if rw.call_free then r.verdict <- Some v;
                   v
             in
             if passed then Some ((Rewrite, r.description), d')
             else begin
               Metrics.incr rewrite_rejected_sim;
               None
             end)

(* ------------------------------------------------------------------ *)

module Span = Hsyn_obs.Trace

let select_or_resynth_probe = Span.probe Span.Move "best_select_or_resynth"
let merge_probe = Span.probe Span.Move "best_merge"
let split_probe = Span.probe Span.Move "best_split"
let rewrite_probe = Span.probe Span.Move "best_rewrite"

let best_select_or_resynth env cur_value d =
  Span.span select_or_resynth_probe (fun () ->
      best_of env cur_value (Seq.append (select_candidates env d) (resynth_candidates env d)))

let best_merge env cur_value d =
  Span.span merge_probe (fun () -> best_of env cur_value (merge_candidates env d))

let best_split env cur_value d =
  if env.allow_split then
    Span.span split_probe (fun () -> best_of env cur_value (split_candidates env d))
  else None

let best_rewrite env cur_value d =
  if env.allow_rewrite then
    Span.span rewrite_probe (fun () -> best_of env cur_value (rewrite_candidates env d))
  else None
