module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
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
  moves_committed : int;
  moves_tried : int;
  interrupted : bool;
  committed : committed_move list;
  reverted : (string * int) list;
  rewrite_kinds : (string * int) list;
  engine : Engine.counters;
  engine_families : (string * Engine.counters) list;
  sched : Sched.stats;
}

let bump_reverted reverted fam n =
  if n = 0 then reverted
  else
    let cur = Option.value ~default:0 (List.assoc_opt fam reverted) in
    (fam, cur + n) :: List.remove_assoc fam reverted

let improve ?token ?(in_quota = false) ?on_pass ?on_commit (env : Moves.env) ~max_moves
    ~max_passes d0 =
  let eng = env.Moves.engine in
  let before = Engine.counters eng in
  let fam_before = Engine.family_counters eng in
  let sched_before = Sched.stats () in
  let value d = Cost.objective_value env.Moves.objective (Engine.evaluate eng d) in
  let stats =
    ref
      {
        passes = 0;
        moves_committed = 0;
        moves_tried = 0;
        interrupted = false;
        committed = [];
        reverted = [];
        rewrite_kinds = [];
        engine = Engine.zero;
        engine_families = [];
        sched = Sched.zero_stats;
      }
  in
  (* Budget discipline: quotas are consulted only when [in_quota] (the
     top-level improvement runs), and only at pass/move boundaries, so
     a quota-truncated run commits exactly a prefix of the unbudgeted
     run's work. Deadline and cancellation are polled everywhere. *)
  let out_of_budget () =
    match token with
    | None -> None
    | Some tok -> if in_quota then Budget.exhausted tok else Budget.interrupted tok
  in
  let interrupt () = stats := { !stats with interrupted = true } in
  let note f = match token with Some tok when in_quota -> f tok | _ -> ()
  in
  let finish current =
    (* attribute to this run the engine work done since it started *)
    let delta = Engine.sub (Engine.counters eng) before in
    let fam_delta =
      Engine.family_counters eng
      |> List.map (fun (f, c) ->
             match List.assoc_opt f fam_before with
             | Some b -> (f, Engine.sub c b)
             | None -> (f, c))
      |> List.filter (fun (_, (c : Engine.counters)) -> c.Engine.generated > 0)
    in
    let sched_delta = Sched.sub_stats (Sched.stats ()) sched_before in
    (* per-rewrite-kind attribution of committed family-E moves,
       classified from the description's kind prefix (the single
       source of truth is Rewrite.kind_of_description) *)
    let rewrite_family = Moves.kind_name Moves.Rewrite in
    let rewrite_kinds =
      List.fold_left
        (fun acc (m : committed_move) ->
          if m.cm_family = rewrite_family then
            bump_reverted acc (Hsyn_dfg.Rewrite.kind_of_description m.cm_description) 1
          else acc)
        [] !stats.committed
      |> List.sort compare
    in
    ( current,
      {
        !stats with
        reverted = List.sort compare !stats.reverted;
        rewrite_kinds;
        engine = delta;
        engine_families = fam_delta;
        sched = sched_delta;
      } )
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
          Span.span Span.Pass "pass" (fun () ->
          stats := { !stats with passes = !stats.passes + 1 };
          note Budget.note_pass;
          let cur = ref !current in
          let cur_val = ref (value !cur) in
          (* tentative sequence as committed_move records, newest
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
                note Budget.note_move;
                (* a hard interruption mid-batch aborts the step; the
                   best committed prefix so far is preserved *)
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
                        cur_val := Cost.objective_value env.Moves.objective m.Moves.eval;
                        cum := !cum +. m.Moves.gain;
                        seq :=
                          {
                            cm_pass = !stats.passes;
                            cm_family = Moves.kind_name m.Moves.kind;
                            cm_description = m.Moves.description;
                            cm_gain = m.Moves.gain;
                            cm_value = !cur_val;
                          }
                          :: !seq;
                        if !cum > !best_prefix_gain then begin
                          best_prefix_gain := !cum;
                          best_prefix := !cur;
                          best_prefix_seq := !seq
                        end))
          done;
          (* tentative moves beyond the committed prefix are reverted *)
          let n_reverted = List.length !seq - List.length !best_prefix_seq in
          let committed_now =
            if !best_prefix_gain > 1e-9 then List.rev !best_prefix_seq else []
          in
          let n_reverted =
            if committed_now = [] then List.length !seq else n_reverted
          in
          let dropped =
            (* newest-first list: reverted moves are its first [n_reverted] *)
            List.filteri (fun i _ -> i < n_reverted) !seq
          in
          stats :=
            {
              !stats with
              reverted =
                List.fold_left
                  (fun acc (m : committed_move) -> bump_reverted acc m.cm_family 1)
                  !stats.reverted dropped;
            };
          if Metrics.is_enabled () then
            List.iter
              (fun (m : committed_move) ->
                Metrics.incr (Metrics.counter ("moves.reverted." ^ m.cm_family)))
              dropped;
          if committed_now <> [] then begin
            current := !best_prefix;
            stats :=
              {
                !stats with
                moves_committed = !stats.moves_committed + List.length committed_now;
                committed = !stats.committed @ committed_now;
              };
            List.iter
              (fun (m : committed_move) ->
                if Metrics.is_enabled () then
                  Metrics.incr (Metrics.counter ("moves.committed." ^ m.cm_family));
                Option.iter (fun f -> f m) on_commit)
              committed_now
          end
          else continue_ := false;
          if !stats.interrupted then continue_ := false;
          Option.iter
            (fun f ->
              f !stats.passes !stats.moves_committed
                (Cost.objective_value env.Moves.objective (Engine.evaluate eng !current)))
            on_pass)
    done;
    finish !current
  end
