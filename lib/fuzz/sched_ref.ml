module Sched = Hsyn_sched.Sched
module Design = Hsyn_rtl.Design
module Fu = Hsyn_modlib.Fu
open Sched

type job = {
  members : int list;
  inst : int;
  busy : int;
  pipelined : bool;
  needs : (Dfg.port * int) list;
  outs : (int * int * int) list;  (* node, out port, ready offset *)
}

let infinite_deadline = 1_000_000

(* A part's profile, read off its schedule with all inputs at 0 and no
   deadline to speak of, as [Sched.module_profile] derives it, and
   memoized for the call by module identity and behavior. *)
let rec profile memo ctx rm behavior =
  match List.find_opt (fun (rm', b, _) -> rm' == rm && b = behavior) !memo with
  | Some (_, _, p) -> p
  | None ->
      let part = Design.module_part rm behavior in
      let dfg = part.Design.dfg in
      let sch = schedule_rec memo ctx (relaxed ~deadline:infinite_deadline dfg) part in
      let value = Design.value_index dfg in
      (* first time the input's value is consumed, found by a scan of
         every node's inputs rather than the graph's reader slices *)
      let first_read id =
        let p = { Dfg.node = id; out = 0 } in
        let first = ref max_int in
        Array.iteri
          (fun c (node : Dfg.node) ->
            if Array.mem p node.Dfg.ins then first := min !first (max 0 sch.start.(c)))
          dfg.Dfg.nodes;
        if !first = max_int then 0 else !first
      in
      let out_ready =
        Array.map (fun id -> sch.avail.(value dfg.Dfg.nodes.(id).Dfg.ins.(0))) dfg.Dfg.outputs
      in
      let p = { in_need = Array.map first_read dfg.Dfg.inputs; out_ready; busy = sch.makespan } in
      memo := (rm, behavior, p) :: !memo;
      p

and build_jobs memo ctx (d : Design.t) =
  let dfg = d.Design.dfg in
  let jobs = ref [] in
  let add_job j = jobs := j :: !jobs in
  let external_needs members need_of =
    let in_members src = List.mem src members in
    List.concat_map
      (fun id ->
        Array.to_list dfg.Dfg.nodes.(id).Dfg.ins
        |> List.mapi (fun port src -> (port, src))
        |> List.filter_map (fun (port, ({ Dfg.node = src; _ } as p)) ->
               if in_members src then None else Some (p, need_of id port)))
      members
  in
  Array.iteri
    (fun i kind ->
      let nodes = Design.nodes_on d i in
      match kind, nodes with
      | _, [] -> ()
      | Design.Simple fu, nodes when Fu.is_chain fu ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          add_job
            {
              members = nodes;
              inst = i;
              busy = latency;
              pipelined = fu.Fu.pipelined;
              needs = external_needs nodes (fun _ _ -> 0);
              outs = List.map (fun id -> (id, 0, latency)) nodes;
            }
      | Design.Simple fu, nodes ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          List.iter
            (fun id ->
              add_job
                {
                  members = [ id ];
                  inst = i;
                  busy = latency;
                  pipelined = fu.Fu.pipelined;
                  needs = external_needs [ id ] (fun _ _ -> 0);
                  outs = [ (id, 0, latency) ];
                })
            nodes
      | Design.Module rm, nodes ->
          List.iter
            (fun id ->
              let behavior =
                match dfg.Dfg.nodes.(id).Dfg.kind with
                | Dfg.Call b -> b
                | _ -> invalid_arg "Sched: non-call node on module instance"
              in
              let p = profile memo ctx rm behavior in
              add_job
                {
                  members = [ id ];
                  inst = i;
                  busy = max 1 p.busy;
                  pipelined = false;
                  needs = external_needs [ id ] (fun _ port -> p.in_need.(port));
                  outs =
                    List.init dfg.Dfg.nodes.(id).Dfg.n_out (fun j -> (id, j, p.out_ready.(j)));
                })
            nodes)
    d.Design.insts;
  Array.of_list (List.rev !jobs)

and schedule_rec memo ctx (cs : constraints) (d : Design.t) =
  let dfg = d.Design.dfg in
  let n_nodes = Array.length dfg.Dfg.nodes in
  let nv = Design.n_values dfg in
  let jobs = build_jobs memo ctx d in
  let n_jobs = Array.length jobs in
  let job_of_node = Array.make n_nodes (-1) in
  Array.iteri (fun j job -> List.iter (fun id -> job_of_node.(id) <- j) job.members) jobs;
  (* sanity: every op/call node must belong to a job *)
  Array.iteri
    (fun id (node : Dfg.node) ->
      match node.Dfg.kind with
      | Dfg.Op _ | Dfg.Call _ ->
          if job_of_node.(id) < 0 then
            invalid_arg (Printf.sprintf "Sched: node %s is unbound" node.Dfg.label)
      | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> ())
    dfg.Dfg.nodes;
  let avail = Array.make nv (-1) in
  Array.iteri
    (fun pos input_id -> avail.(Design.value_index dfg { Dfg.node = input_id; out = 0 }) <- cs.input_arrival.(pos))
    dfg.Dfg.inputs;
  Array.iteri
    (fun id (node : Dfg.node) ->
      match node.Dfg.kind with
      | Dfg.Const _ | Dfg.Delay _ -> avail.(Design.value_index dfg { Dfg.node = id; out = 0 }) <- 0
      | Dfg.Input | Dfg.Output | Dfg.Op _ | Dfg.Call _ -> ())
    dfg.Dfg.nodes;
  (* priorities: longest path to sink over the job DAG *)
  let succs = Array.make n_jobs [] in
  let preds_remaining = Array.make n_jobs 0 in
  Array.iteri
    (fun j job ->
      List.iter
        (fun (({ Dfg.node = src; _ } : Dfg.port), _) ->
          let pj = job_of_node.(src) in
          if pj >= 0 && pj <> j then begin
            succs.(pj) <- j :: succs.(pj);
            preds_remaining.(j) <- preds_remaining.(j) + 1
          end)
        job.needs)
    jobs;
  let base_est = Array.make n_jobs 0 in
  let anti_in = Array.make n_jobs [] in
  let add_anti ~pred ~job ~gap =
    if pred <> job then begin
      anti_in.(job) <- (pred, gap) :: anti_in.(job);
      succs.(pred) <- job :: succs.(pred);
      preds_remaining.(job) <- preds_remaining.(job) + 1
    end
  in
  let topo_pos =
    let order = Dfg.topo_order dfg in
    let pos = Array.make n_nodes 0 in
    Array.iteri (fun idx id -> pos.(id) <- idx) order;
    pos
  in
  let out_off_of j value =
    let ({ Dfg.node; out } : Dfg.port) = Design.value_of_index dfg value in
    let rec find = function
      | [] -> 0
      | (n, o, off) :: rest -> if n = node && o = out then off else find rest
    in
    find jobs.(j).outs
  in
  (* read times of a value, as (job reader, need offset) or a constant
     cycle for output/delay consumers (their read = availability) *)
  let readers_of value =
    let p = Design.value_of_index dfg value in
    let acc = ref [] in
    Array.iteri
      (fun dst (node : Dfg.node) ->
        Array.iteri
          (fun port src ->
            if src = p then
              match node.Dfg.kind with
              | Dfg.Output | Dfg.Delay _ -> acc := `At_avail :: !acc
              | _ ->
                  let j = job_of_node.(dst) in
                  if j >= 0 then begin
                    let need =
                      List.fold_left
                        (fun found (q, n) -> if q = p && n > found then n else found)
                        0 jobs.(j).needs
                    in
                    ignore port;
                    acc := `Reader (j, need) :: !acc
                  end)
          node.Dfg.ins)
      dfg.Dfg.nodes;
    !acc
  in
  for r = 0 to d.Design.n_regs - 1 do
    let values =
      Design.values_in_reg d r
      |> List.sort (fun a b ->
             let pa = (Design.value_of_index dfg a).Dfg.node in
             let pb = (Design.value_of_index dfg b).Dfg.node in
             compare (topo_pos.(pa), a) (topo_pos.(pb), b))
    in
    let rec pairs = function
      | v1 :: (v2 :: _ as rest) ->
          let writer2 =
            let ({ Dfg.node; _ } : Dfg.port) = Design.value_of_index dfg v2 in
            job_of_node.(node)
          in
          let off2 = if writer2 >= 0 then out_off_of writer2 v2 else 0 in
          if writer2 >= 0 then
            List.iter
              (fun reader ->
                match reader with
                | `Reader (j, need) -> add_anti ~pred:j ~job:writer2 ~gap:(need + 1 - off2)
                | `At_avail -> (
                    let ({ Dfg.node = p1; _ } : Dfg.port) = Design.value_of_index dfg v1 in
                    let j1 = job_of_node.(p1) in
                    if j1 >= 0 then
                      add_anti ~pred:j1 ~job:writer2 ~gap:(out_off_of j1 v1 + 1 - off2)
                    else
                      base_est.(writer2) <-
                        max base_est.(writer2) (avail.(v1) + 1 - off2)))
              (readers_of v1)
          else ();
          pairs rest
      | _ -> []
    in
    ignore (pairs values)
  done;
  let weight job = List.fold_left (fun acc (_, _, off) -> max acc off) job.busy job.outs in
  let prio = Array.make n_jobs 0 in
  let order =
    let indeg = Array.copy preds_remaining in
    let q = Queue.create () in
    Array.iteri (fun j c -> if c = 0 then Queue.add j q) indeg;
    let out = ref [] in
    while not (Queue.is_empty q) do
      let j = Queue.pop q in
      out := j :: !out;
      List.iter
        (fun s ->
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then Queue.add s q)
        succs.(j)
    done;
    !out
  in
  List.iter
    (fun j ->
      let best_succ = List.fold_left (fun acc s -> max acc prio.(s)) 0 succs.(j) in
      prio.(j) <- weight jobs.(j) + best_succ)
    order;
  (* list scheduling, time stepped *)
  let start_of_job = Array.make n_jobs (-1) in
  let est = Array.make n_jobs (-1) in
  let free_from = Array.make (Array.length d.Design.insts) 0 in
  let compute_est j =
    let data =
      List.fold_left
        (fun acc (p, need) ->
          let a = avail.(Design.value_index dfg p) in
          assert (a >= 0);
          max acc (a - need))
        base_est.(j) jobs.(j).needs
    in
    List.fold_left
      (fun acc (pred, gap) ->
        assert (start_of_job.(pred) >= 0);
        max acc (start_of_job.(pred) + gap))
      data anti_in.(j)
  in
  Array.iteri (fun j c -> if c = 0 then est.(j) <- compute_est j) preds_remaining;
  let unscheduled = ref n_jobs in
  let total_busy = Array.fold_left (fun acc job -> acc + job.busy) 0 jobs in
  let max_arrival = Array.fold_left max 0 cs.input_arrival in
  let max_base = Array.fold_left max 0 base_est in
  let bound = total_busy + max_arrival + max_base + (3 * n_jobs) + 4 in
  let t = ref 0 in
  while !unscheduled > 0 && !t <= bound do
    let rec fire () =
      let best = ref (-1) in
      for j = 0 to n_jobs - 1 do
        if start_of_job.(j) < 0 && est.(j) >= 0 && est.(j) <= !t && free_from.(jobs.(j).inst) <= !t
        then if !best < 0 || prio.(j) > prio.(!best) then best := j
      done;
      if !best >= 0 then begin
        let j = !best in
        let job = jobs.(j) in
        start_of_job.(j) <- !t;
        decr unscheduled;
        free_from.(job.inst) <- !t + (if job.pipelined then 1 else job.busy);
        List.iter
          (fun (node, out, off) -> avail.(Design.value_index dfg { Dfg.node; out }) <- !t + off)
          job.outs;
        List.iter
          (fun s ->
            preds_remaining.(s) <- preds_remaining.(s) - 1;
            if preds_remaining.(s) = 0 then est.(s) <- compute_est s)
          succs.(j);
        fire ()
      end
    in
    fire ();
    incr t
  done;
  if !unscheduled > 0 then
    { start = Array.make n_nodes (-1); avail; makespan = bound; feasible = false }
  else begin
    let start = Array.make n_nodes (-1) in
    Array.iteri (fun j job -> List.iter (fun id -> start.(id) <- start_of_job.(j)) job.members) jobs;
    let makespan = ref 0 in
    Array.iteri
      (fun j job ->
        makespan := max !makespan (start_of_job.(j) + weight job))
      jobs;
    let consume_time id =
      let src = dfg.Dfg.nodes.(id).Dfg.ins.(0) in
      avail.(Design.value_index dfg src)
    in
    Array.iteri
      (fun id (node : Dfg.node) ->
        match node.Dfg.kind with
        | Dfg.Output | Dfg.Delay _ -> makespan := max !makespan (consume_time id)
        | Dfg.Input | Dfg.Const _ | Dfg.Op _ | Dfg.Call _ -> ())
      dfg.Dfg.nodes;
    let outputs_ok =
      match cs.output_deadline with
      | None -> true
      | Some deadlines ->
          Array.for_all2 (fun output_id dl -> consume_time output_id <= dl) dfg.Dfg.outputs deadlines
    in
    let feasible = !makespan <= cs.deadline && outputs_ok in
    { start; avail; makespan = !makespan; feasible }
  end

let schedule ctx (cs : constraints) (d : Design.t) = schedule_rec (ref []) ctx cs d
