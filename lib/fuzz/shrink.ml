module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Rewrite = Hsyn_dfg.Rewrite
module Text = Hsyn_dfg.Text

(* ------------------------------------------------------------------ *)
(* Graph surgery: drop one node, rewiring its consumers to the        *)
(* dropped node's own inputs (consumer port k inherits input          *)
(* min(k, arity-1)). Inputs and outputs are never dropped (they are   *)
(* the behavior interface); consts and delays only when unused        *)
(* (nothing to rewire to — a delay's feed may be a later node, which  *)
(* the in-order rebuild below could not resolve).                     *)

let has_consumers (g : Dfg.t) v =
  Array.exists (fun (n : Dfg.node) -> Array.exists (fun (p : Dfg.port) -> p.Dfg.node = v) n.Dfg.ins) g.Dfg.nodes

let droppable (g : Dfg.t) v =
  let n = g.Dfg.nodes.(v) in
  match n.Dfg.kind with
  | Dfg.Input | Dfg.Output -> false
  | Dfg.Const _ | Dfg.Delay _ -> not (has_consumers g v)
  | Dfg.Op _ | Dfg.Call _ ->
      Array.length n.Dfg.ins > 0
      (* a self-feeding cycle through v cannot be rewired away *)
      && not (Array.exists (fun (p : Dfg.port) -> p.Dfg.node = v) n.Dfg.ins)

(* Rebuild [g] without node [v] (Dfg.t is private; the Builder
   re-validates for free), substituting [replacement k] for references
   to [v]'s output [k]. Returns [None] when the result is malformed —
   e.g. removing the last op re-creates a combinational cycle some
   delay was breaking. *)
let rebuild_without (g : Dfg.t) v replacement =
  if not (droppable g v) then None
  else
    Rewrite.rebuild g ~skip:(Int.equal v)
      ~subst:(fun (p : Dfg.port) -> if p.Dfg.node = v then Some (replacement p.Dfg.out) else None)
      ()

let remove_node (g : Dfg.t) v =
  let ins = g.Dfg.nodes.(v).Dfg.ins in
  rebuild_without g v (fun k -> ins.(min k (Array.length ins - 1)))

(* Coarser surgery: replace the node by ONE of its operands, rewiring
   every consumer port to operand [j] regardless of which output it
   consumed. This is the reduction that undoes algebraic rewrites — a
   rebalanced or strength-reduced subtree collapses back to one of its
   leaves, so rewrite-oracle repros minimize past rewritten structure
   that [remove_node]'s positional rewiring cannot reach. *)
let replace_by_operand (g : Dfg.t) v j =
  let ins = g.Dfg.nodes.(v).Dfg.ins in
  if j < 0 || j >= Array.length ins then None
  else rebuild_without g v (fun _ -> ins.(j))

(* ------------------------------------------------------------------ *)
(* Program-level candidates, biggest reduction first.                 *)

type rep = { behaviors : (string * Dfg.t list) list; top : Dfg.t }

let to_rep (prog : Text.program) =
  let registry = prog.Text.registry in
  {
    behaviors = List.map (fun b -> (b, Registry.variants registry b)) (Registry.behaviors registry);
    top = Gen.top_graph prog;
  }

let of_rep r =
  let registry = Registry.create () in
  List.iter (fun (b, vs) -> List.iter (fun v -> Registry.register registry b v) vs) r.behaviors;
  { Text.registry; graphs = [ r.top ] }

let callers_of r name =
  let calls g = List.mem name (Dfg.called_behaviors g) in
  calls r.top
  || List.exists (fun (b, vs) -> b <> name && List.exists calls vs) r.behaviors

let candidates r =
  let drop_behaviors =
    List.filter_map
      (fun (b, _) ->
        if callers_of r b then None
        else Some { r with behaviors = List.filter (fun (b', _) -> b' <> b) r.behaviors })
      r.behaviors
  in
  let drop_variants =
    List.concat_map
      (fun (b, vs) ->
        if List.length vs < 2 then []
        else
          List.mapi
            (fun i _ ->
              let vs' = List.filteri (fun j _ -> j <> i) vs in
              { r with behaviors = List.map (fun (b', vs0) -> (b', if b' = b then vs' else vs0)) r.behaviors })
            vs)
      r.behaviors
  in
  let node_drops_in g rebuild =
    (* later nodes first: they sit closer to the outputs, so removing
       them sheds the most downstream structure per accepted step *)
    List.init (Array.length g.Dfg.nodes) (fun k -> Array.length g.Dfg.nodes - 1 - k)
    |> List.filter_map (fun v -> Option.map rebuild (remove_node g v))
  in
  let node_replaces_in g rebuild =
    (* same later-nodes-first order as drops; [j = 0] on single-output
       nodes would duplicate [remove_node]'s default rewiring of the
       sole output, so only the remaining operands are offered there *)
    List.init (Array.length g.Dfg.nodes) (fun k -> Array.length g.Dfg.nodes - 1 - k)
    |> List.concat_map (fun v ->
           let node = g.Dfg.nodes.(v) in
           List.init (Array.length node.Dfg.ins) Fun.id
           |> List.filter (fun j -> j > 0 || node.Dfg.n_out > 1)
           |> List.filter_map (fun j -> Option.map rebuild (replace_by_operand g v j)))
  in
  let in_variants gen =
    List.concat_map
      (fun (b, vs) ->
        List.concat (List.mapi
          (fun i g ->
            gen g (fun g' ->
                let vs' = List.mapi (fun j v -> if j = i then g' else v) vs in
                { r with behaviors = List.map (fun (b', vs0) -> (b', if b' = b then vs' else vs0)) r.behaviors }))
          vs))
      r.behaviors
  in
  let top_drops = node_drops_in r.top (fun top -> { r with top }) in
  let variant_drops = in_variants node_drops_in in
  let top_replaces = node_replaces_in r.top (fun top -> { r with top }) in
  let variant_replaces = in_variants node_replaces_in in
  drop_behaviors @ drop_variants @ top_drops @ variant_drops @ top_replaces @ variant_replaces

(* ------------------------------------------------------------------ *)

type stats = { size_before : int; size_after : int; checks_used : int; steps : int }

let shrink ?(max_checks = 300) ~still_fails prog =
  let size_before = Gen.size prog in
  let checks = ref 0 and steps = ref 0 in
  let accepts p =
    if !checks >= max_checks then false
    else begin
      incr checks;
      Gen.well_formed p = Ok () && still_fails p
    end
  in
  let rec fixpoint r =
    if !checks >= max_checks then r
    else
      match
        List.find_map
          (fun cand ->
            let p = of_rep cand in
            if accepts p then Some cand else None)
          (candidates r)
      with
      | Some smaller ->
          incr steps;
          fixpoint smaller
      | None -> r
  in
  let shrunk = of_rep (fixpoint (to_rep prog)) in
  (shrunk, { size_before; size_after = Gen.size shrunk; checks_used = !checks; steps = !steps })
