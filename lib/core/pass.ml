module Design = Hsyn_rtl.Design
module Metrics = Hsyn_obs.Metrics
module Span = Hsyn_obs.Trace

type committed_move = {
  cm_pass : int;
  cm_family : string;
  cm_description : string;
  cm_gain : float;
  cm_value : float;
}

type stats = {
  passes : int;
  moves_tried : int;
  interrupted : bool;
  committed : committed_move list;
  engine : Session.counters;
}

let moves_committed stats = List.length stats.committed

let incr_count counts key =
  let cur = Option.value ~default:0 (List.assoc_opt key counts) in
  (key, cur + 1) :: List.remove_assoc key counts

(* classified from the description's kind prefix (the single source of
   truth is Rewrite.kind_of_description) *)
let rewrite_kinds stats =
  let rewrite_family = Moves.kind_name Moves.Rewrite in
  List.fold_left
    (fun acc (m : committed_move) ->
      if m.cm_family = rewrite_family then
        incr_count acc (Hsyn_dfg.Rewrite.kind_of_description m.cm_description)
      else acc)
    [] stats.committed
  |> List.sort compare

let pass_probe = Span.probe Span.Pass "pass"

(* moves.committed.<family> and moves.reverted.<family>, per move kind *)
let family_counters prefix =
  List.map (fun (k, name, _) -> (k, Metrics.counter (prefix ^ name))) Moves.all_kinds

let committed_counters = family_counters "moves.committed."
let reverted_counters = family_counters "moves.reverted."

let improve ?on_pass ?on_commit (env : Moves.env) ~max_moves ~max_passes d0 =
  let eng = env.Moves.engine in
  let objective = Engine.objective eng in
  let before = Engine.counters eng in
  let value d = Cost.objective_value objective (Engine.evaluate eng d) in
  let stats =
    ref
      {
        passes = 0;
        moves_tried = 0;
        interrupted = false;
        committed = [];
        engine = Session.zero;
      }
  in
  (* deadline and cancellation, polled at every pass and move boundary;
     the candidate batches poll them too *)
  let out_of_budget () = Engine.interrupted eng in
  let interrupt () = stats := { !stats with interrupted = true } in
  let finish current =
    (* attribute to this run the engine work done since it started *)
    (current, { !stats with engine = Session.sub (Engine.counters eng) before })
  in
  if value d0 = infinity then finish d0
  else begin
    let current = ref d0 in
    let continue_ = ref true in
    while !continue_ && !stats.passes < max_passes do
      match out_of_budget () with
      | Some _ ->
          interrupt ();
          continue_ := false
      | None ->
          Span.span pass_probe (fun () ->
          stats := { !stats with passes = !stats.passes + 1 };
          let cur = ref !current in
          let cur_val = ref (value !cur) in
          (* tentative sequence as (kind, committed_move) pairs, newest
             first; the best-gain prefix is committed at pass end *)
          let cum = ref 0. in
          let best_prefix_gain = ref 0. in
          let best_prefix = ref !current in
          let best_prefix_seq = ref [] in
          let seq = ref [] in
          let steps = ref 0 in
          let stop = ref false in
          while (not !stop) && !steps < max_moves do
            incr steps;
            match out_of_budget () with
            | Some _ ->
                interrupt ();
                stop := true
            | None -> (
                (* an interruption mid-batch aborts the step, which
                   then does not count in [moves_tried]; the best
                   committed prefix so far is preserved *)
                match
                  let m1 = Moves.best_select_or_resynth env !cur_val !cur in
                  let m3 =
                    match Moves.best_merge env !cur_val !cur with
                    | Some m when m.Moves.gain >= 0. -> Some m
                    | weak -> (
                        (* sharing only hurts: consider splitting instead
                           (statements 9–10) *)
                        match Moves.best_split env !cur_val !cur with
                        | Some s -> (
                            match weak with
                            | Some m when m.Moves.gain >= s.Moves.gain -> Some m
                            | _ -> Some s)
                        | None -> weak)
                  in
                  (* family E competes on equal footing with the
                     structural moves; earlier families win ties *)
                  let m5 = Moves.best_rewrite env !cur_val !cur in
                  let better a b =
                    match a, b with
                    | None, m | m, None -> m
                    | Some a', Some b' -> if a'.Moves.gain >= b'.Moves.gain then a else b
                  in
                  better (better m1 m3) m5
                with
                | exception Budget.Interrupted _ ->
                    interrupt ();
                    stop := true
                | chosen -> (
                    stats := { !stats with moves_tried = !stats.moves_tried + 1 };
                    match chosen with
                    | None -> stop := true
                    | Some m ->
                        cur := m.Moves.candidate;
                        cur_val := Cost.objective_value objective m.Moves.eval;
                        cum := !cum +. m.Moves.gain;
                        seq :=
                          ( m.Moves.kind,
                            {
                              cm_pass = !stats.passes;
                              cm_family = Moves.kind_name m.Moves.kind;
                              cm_description = m.Moves.description;
                              cm_gain = m.Moves.gain;
                              cm_value = !cur_val;
                            } )
                          :: !seq;
                        if !cum > !best_prefix_gain then begin
                          best_prefix_gain := !cum;
                          best_prefix := !cur;
                          best_prefix_seq := !seq
                        end))
          done;
          let committed_now =
            if !best_prefix_gain > 1e-9 then List.rev !best_prefix_seq else []
          in
          (* tentative moves beyond the committed prefix are reverted;
             [!seq] is newest first, so they are its first entries *)
          if Metrics.is_enabled () then begin
            let n_reverted = List.length !seq - List.length committed_now in
            List.iteri
              (fun i (k, _) -> if i < n_reverted then Metrics.incr (List.assq k reverted_counters))
              !seq
          end;
          if committed_now <> [] then begin
            current := !best_prefix;
            stats := { !stats with committed = !stats.committed @ List.map snd committed_now };
            List.iter
              (fun (k, m) ->
                Metrics.incr (List.assq k committed_counters);
                Option.iter (fun f -> f m) on_commit)
              committed_now
          end
          else continue_ := false;
          if !stats.interrupted then continue_ := false;
          Option.iter
            (fun f -> f !stats.passes (moves_committed !stats) (value !current))
            on_pass)
    done;
    finish !current
  end
