module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Sched = Hsyn_sched.Sched
module Library = Hsyn_modlib.Library

let rec build_rec ?sched_cache ctx ~complexes registry (dfg : Dfg.t) =
  let insts = ref [] in
  let n_insts = ref 0 in
  let add_inst kind =
    insts := kind :: !insts;
    incr n_insts;
    !n_insts - 1
  in
  let node_inst =
    Array.map
      (fun (node : Dfg.node) ->
        match node.Dfg.kind with
        | Dfg.Op op -> add_inst (Design.Simple (Library.fastest_for ctx.Design.lib op))
        | Dfg.Call behavior ->
            let rm =
              match complexes behavior with
              | [] ->
                  let variant = Registry.default_variant registry behavior in
                  let part = build_rec ?sched_cache ctx ~complexes registry variant in
                  { Design.rm_name = behavior ^ "#init"; parts = [ (behavior, part) ] }
              | candidates ->
                  (* fastest available implementation *)
                  let busy rm =
                    (Sched.module_profile ?cache:sched_cache ctx rm behavior).Sched.busy
                  in
                  List.fold_left (fun best rm -> if busy rm < busy best then rm else best)
                    (List.hd candidates) (List.tl candidates)
            in
            add_inst (Design.Module rm)
        | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> -1)
      dfg.Dfg.nodes
  in
  let nv = Design.n_values dfg in
  let value_reg = Array.make nv (-1) in
  let n_regs = ref 0 in
  for v = 0 to nv - 1 do
    let ({ Dfg.node; _ } : Dfg.port) = Design.value_of_index dfg v in
    match dfg.Dfg.nodes.(node).Dfg.kind with
    | Dfg.Const _ | Dfg.Output -> ()
    | Dfg.Input | Dfg.Op _ | Dfg.Call _ | Dfg.Delay _ ->
        value_reg.(v) <- !n_regs;
        incr n_regs
  done;
  {
    Design.dfg;
    insts = Array.of_list (List.rev !insts);
    node_inst;
    value_reg;
    n_regs = !n_regs;
  }

let initial_probe = Hsyn_obs.Trace.(probe Pass "initial")

let build ?sched_cache ctx ~complexes registry dfg =
  Hsyn_obs.Trace.span initial_probe (fun () -> build_rec ?sched_cache ctx ~complexes registry dfg)
