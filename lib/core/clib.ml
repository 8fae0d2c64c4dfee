module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Sched = Hsyn_sched.Sched
module Trace = Hsyn_eval.Trace
module Rng = Hsyn_util.Rng

type t = (string, Design.rtl_module list) Hashtbl.t

type effort = {
  max_moves : int;
  max_passes : int;
  max_candidates : int;
  engine : Engine.policy;
}

let default_effort =
  { max_moves = 6; max_passes = 2; max_candidates = 24; engine = Engine.default_policy }

let lookup (t : t) behavior = match Hashtbl.find_opt t behavior with Some l -> l | None -> []

let behaviors (t : t) = Hashtbl.fold (fun b _ acc -> b :: acc) t [] |> List.sort compare

(* Behaviors reachable from [top], deepest first. *)
let reachable registry top =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit (g : Dfg.t) =
    List.iter
      (fun b ->
        if not (Hashtbl.mem seen b) then begin
          Hashtbl.add seen b ();
          List.iter visit (Registry.variants registry b);
          order := b :: !order
        end)
      (Dfg.called_behaviors g)
  in
  visit top;
  List.rev !order

let improve_part ?session ?token ctx registry ~complexes ~effort ~trace ~allow_embed
    ~allow_split ~allow_rewrite cs objective part =
  let sampling_ns = Float.of_int cs.Sched.deadline *. ctx.Design.clk_ns in
  let engine =
    Engine.create ~policy:effort.engine ?session ?token ~ctx ~cs ~sampling_ns ~trace ~objective ()
  in
  let env =
    Moves.make_env engine ~registry ~complexes ~max_candidates:effort.max_candidates ~allow_embed
      ~allow_split ~allow_rewrite
  in
  Pass.improve env ~max_moves:effort.max_moves ~max_passes:effort.max_passes part

let synthesize_variant ?session ?token ctx registry clib ~rng ~trace_length ~effort behavior
    (variant : Dfg.t) =
  let sched_cache = Option.map Session.sched_cache session in
  let complexes = lookup clib in
  let initial = Initial.build ?sched_cache ctx ~complexes registry variant in
  let relaxed = Sched.relaxed ~deadline:1_000_000 variant in
  let sch0 = Sched.schedule ?cache:sched_cache ctx relaxed initial in
  let fast_span = max 1 sch0.Sched.makespan in
  let trace =
    Trace.generate (Rng.split rng) Trace.default_kind ~n_inputs:(Array.length variant.Dfg.inputs)
      ~length:trace_length
  in
  (* Library construction embeds, splits and rewrites whatever the
     config's family switches say. ROADMAP item 1 decides whether it
     should follow them instead. *)
  let optimize objective deadline =
    fst
      (improve_part ?session ?token ctx registry ~complexes ~effort ~trace ~allow_embed:true
         ~allow_split:true ~allow_rewrite:true { relaxed with Sched.deadline } objective initial)
  in
  let fast = { Design.rm_name = variant.Dfg.name ^ "@f"; parts = [ (behavior, initial) ] } in
  let area_opt =
    { Design.rm_name = variant.Dfg.name ^ "@a"; parts = [ (behavior, optimize Cost.Area fast_span) ] }
  in
  let power_opt =
    {
      Design.rm_name = variant.Dfg.name ^ "@p";
      parts = [ (behavior, optimize Cost.Power (2 * fast_span)) ];
    }
  in
  [ fast; area_opt; power_opt ]

let clib_probe = Hsyn_obs.Trace.(probe Pass "clib")

let build ?session ?token ctx registry ~rng ~trace_length ~effort ~top =
  Hsyn_obs.Trace.span clib_probe @@ fun () ->
  let clib : t = Hashtbl.create 16 in
  List.iter
    (fun behavior ->
      let modules =
        List.concat_map
          (fun variant ->
            synthesize_variant ?session ?token ctx registry clib ~rng ~trace_length ~effort
              behavior variant)
          (Registry.variants registry behavior)
      in
      Hashtbl.replace clib behavior modules)
    (reachable registry top);
  clib

let pp ctx fmt (t : t) =
  Format.fprintf fmt "@[<v>complex module library:@,";
  List.iter
    (fun b ->
      List.iter
        (fun (rm : Design.rtl_module) ->
          let part = Design.module_part rm b in
          let p = Sched.module_profile ctx rm b in
          let area = Hsyn_eval.Area.module_area ctx rm in
          Format.fprintf fmt "  %s (behavior %s): area=%.0f busy=%d in=[%s] out=[%s] insts=%d regs=%d@,"
            rm.Design.rm_name b area p.Sched.busy
            (String.concat "," (Array.to_list (Array.map string_of_int p.Sched.in_need)))
            (String.concat "," (Array.to_list (Array.map string_of_int p.Sched.out_ready)))
            (Array.length part.Design.insts) part.Design.n_regs)
        (lookup t b))
    (behaviors t);
  Format.fprintf fmt "@]"
