module Design = Hsyn_rtl.Design
module Fu = Hsyn_modlib.Fu
module Vec = Hsyn_util.Vec

type correspondence = {
  left_inst : int array;
  right_inst : int array;
  left_reg : int array;
  right_reg : int array;
}

(* Every part of a well-formed module shares one resource set (the
   [Design.rtl_module] invariant). Both the merge and the
   correspondence printer lean on that — so check it and fail with a
   diagnosable error instead of silently reading only the first part
   (or crashing on a part-less module). *)
let representative_part what (m : Design.rtl_module) =
  match m.Design.parts with
  | [] -> invalid_arg (Printf.sprintf "%s: module %s has no parts" what m.Design.rm_name)
  | (b0, p0) :: rest ->
      List.iter
        (fun (b, (p : Design.t)) ->
          if p.Design.insts <> p0.Design.insts then
            invalid_arg
              (Printf.sprintf
                 "%s: module %s: parts %s and %s disagree on the shared instance set" what
                 m.Design.rm_name b0 b)
          else if p.Design.n_regs <> p0.Design.n_regs then
            invalid_arg
              (Printf.sprintf
                 "%s: module %s: parts %s and %s disagree on the register count (%d vs %d)" what
                 m.Design.rm_name b0 b p0.Design.n_regs p.Design.n_regs))
        rest;
      p0

let merged_behaviors (a : Design.rtl_module) (b : Design.rtl_module) =
  let ba = Design.module_behaviors a and bb = Design.module_behaviors b in
  if List.exists (fun x -> List.mem x ba) bb then None else Some (ba @ bb)

(* Cost of hosting right-side component [rk] on left-side component
   [lk]; returns the merged component kind and a score (lower is
   better), or None if incompatible. *)
let host_cost (lk : Design.inst_kind) (rk : Design.inst_kind) =
  match lk, rk with
  | Design.Simple lf, Design.Simple rf ->
      if lf.Fu.name = rf.Fu.name then Some (lk, 0.)
      else if Fu.compatible lf rf then Some (lk, 1.) (* left hosts right as-is *)
      else if Fu.compatible rf lf then Some (rk, 2. +. Float.max 0. (rf.Fu.area -. lf.Fu.area))
      else None
  | Design.Module lm, Design.Module rm -> if lm.Design.rm_name = rm.Design.rm_name then Some (lk, 0.) else None
  | Design.Simple _, Design.Module _ | Design.Module _, Design.Simple _ -> None

let embed_probe = Hsyn_obs.Trace.(probe Embed "embed")

let merge_modules _ctx ~name (left : Design.rtl_module) (right : Design.rtl_module) =
  Hsyn_obs.Trace.span embed_probe @@ fun () ->
  match merged_behaviors left right with
  | None -> None
  | Some _ ->
      let left_rep = representative_part "Embed.merge_modules" left in
      let right_rep = representative_part "Embed.merge_modules" right in
      let left_insts = left_rep.Design.insts in
      let right_insts = right_rep.Design.insts in
      let nl = Array.length left_insts and nr = Array.length right_insts in
      let merged = Vec.of_array left_insts in
      let left_inst = Array.init nl Fun.id in
      let right_inst = Array.make nr (-1) in
      let taken = Array.make nl false in
      (* match big right components first: reusing a multiplier matters
         more than reusing an adder *)
      let order =
        List.init nr Fun.id
        |> List.sort (fun a b ->
               let area k =
                 match k with
                 | Design.Simple fu -> fu.Fu.area
                 | Design.Module _ -> 1e9 (* modules first *)
               in
               compare (area right_insts.(b)) (area right_insts.(a)))
      in
      List.iter
        (fun r ->
          let best = ref None in
          for l = 0 to nl - 1 do
            if not taken.(l) then
              match host_cost (Vec.get merged l) right_insts.(r) with
              | Some (kind, cost) -> (
                  match !best with
                  | Some (_, _, c) when c <= cost -> ()
                  | _ -> best := Some (l, kind, cost))
              | None -> ()
          done;
          match !best with
          | Some (l, kind, _) ->
              taken.(l) <- true;
              right_inst.(r) <- l;
              Vec.set merged l kind
          | None -> right_inst.(r) <- Vec.push merged right_insts.(r))
        order;
      let merged_insts = Vec.to_array merged in
      let rl = left_rep.Design.n_regs in
      let rr = right_rep.Design.n_regs in
      let n_regs = max rl rr in
      let left_reg = Array.init rl Fun.id in
      let right_reg = Array.init rr Fun.id in
      let remap_part inst_map (part : Design.t) =
        {
          part with
          Design.insts = merged_insts;
          node_inst = Array.map (fun i -> if i < 0 then -1 else inst_map.(i)) part.Design.node_inst;
          n_regs;
        }
      in
      let parts =
        List.map (fun (b, p) -> (b, remap_part left_inst p)) left.Design.parts
        @ List.map (fun (b, p) -> (b, remap_part right_inst p)) right.Design.parts
      in
      let rm = { Design.rm_name = name; parts } in
      Some (rm, { left_inst; right_inst; left_reg; right_reg })

let pp_correspondence fmt ((left : Design.rtl_module), (right : Design.rtl_module), (m : Design.rtl_module), corr) =
  let rep = representative_part "Embed.pp_correspondence" m in
  let merged_insts = rep.Design.insts in
  let find map i =
    let found = ref None in
    Array.iteri (fun orig dst -> if dst = i then found := Some orig) map;
    !found
  in
  Format.fprintf fmt "@[<v>embedding %s + %s -> %s@," left.Design.rm_name right.Design.rm_name
    m.Design.rm_name;
  Array.iteri
    (fun i kind ->
      let side map = match find map i with Some o -> Printf.sprintf "I%d" o | None -> "-" in
      Format.fprintf fmt "  M%d (%a): left=%s right=%s@," i Design.pp_inst_kind kind
        (side corr.left_inst) (side corr.right_inst))
    merged_insts;
  let n_regs = rep.Design.n_regs in
  for r = 0 to n_regs - 1 do
    let side map = if r < Array.length map then Printf.sprintf "r%d" r else "-" in
    Format.fprintf fmt "  q%d: left=%s right=%s@," r (side corr.left_reg) (side corr.right_reg)
  done;
  Format.fprintf fmt "@]"
