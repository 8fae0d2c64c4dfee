(* Anytime synthesis: budgets, progress events, cancellation, and
   checkpoint/resume through the request API.

   Run with:  dune exec examples/anytime.exe *)

module Library = Hsyn_modlib.Library
module Design = Hsyn_rtl.Design
module Cost = Hsyn_core.Cost
module Budget = Hsyn_core.Budget
module Events = Hsyn_core.Events
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite

let () =
  let b = Suite.iir () in
  let lib = Library.default in
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  let sampling_ns = 2.2 *. min_ns in

  (* 1. A config is a record update of the default; [validate] rejects
     invalid settings up front ([Request.make] checks them too). *)
  let config =
    match
      S.Config.validate { S.Config.default with S.max_passes = 2; trace_length = 8; max_clocks = 2 }
    with
    | Ok c -> c
    | Error msg -> failwith msg
  in

  (* 2. A resource envelope: half a second of wall clock. A quota on
     finished (V_dd, clock) contexts composes the same way. *)
  let budget =
    match Budget.make ~deadline_s:0.5 () with Ok bu -> bu | Error msg -> failwith msg
  in

  let request objective budget =
    match
      S.Request.make ~config ~budget ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg
        ~objective ~sampling_ns ()
    with
    | Ok req -> req
    | Error msg -> failwith msg
  in

  (* 3. Watch the run through the typed event stream. *)
  let events e = print_endline ("  " ^ Events.to_string e) in

  Printf.printf "budgeted run (%.1fs deadline):\n" 0.5;
  let ckpt = Filename.temp_file "anytime_example" ".ckpt" in
  (match S.synthesize ~events ~checkpoint:ckpt (request Cost.Power budget) with
  | Error msg -> Printf.printf "no design within budget: %s\n" msg
  | Ok r ->
      Printf.printf "best-so-far: V_dd=%.1fV area=%.1f power=%.3f (completed=%b, %d/%d contexts)\n"
        r.S.ctx.Design.vdd r.S.eval.Cost.area r.S.eval.Cost.power r.S.completed
        r.S.coverage.S.contexts_done r.S.coverage.S.contexts_planned);

  (* 4. Resume from the checkpoint with the budget lifted: the sweep
     skips the finished contexts and converges to the same result an
     uninterrupted run would produce. *)
  Printf.printf "\nresumed run (no budget):\n";
  (match S.synthesize ~checkpoint:ckpt ~resume:true (request Cost.Power Budget.unlimited) with
  | Error msg -> failwith msg
  | Ok r ->
      Printf.printf "final: V_dd=%.1fV area=%.1f power=%.3f (completed=%b)\n" r.S.ctx.Design.vdd
        r.S.eval.Cost.area r.S.eval.Cost.power r.S.completed;
      print_endline "\nstable JSON rendering:";
      print_endline (S.Result.to_json r));
  if Sys.file_exists ckpt then Sys.remove ckpt;

  (* 5. Cooperative cancellation: any observer (an event sink, another
     domain, a signal handler) can stop the run at the next move
     boundary via its token. Here: stop after the first finished
     context. *)
  Printf.printf "\ncancellation from an event sink:\n";
  let req = request Cost.Power Budget.unlimited in
  let token = Budget.start req.S.Request.budget in
  let sink (e : Events.t) =
    match e.Events.payload with
    | Events.Context_finished _ -> Budget.cancel token
    | _ -> ()
  in
  match S.synthesize ~events:sink ~token req with
  | Error msg -> Printf.printf "cancelled before any feasible design: %s\n" msg
  | Ok r ->
      Printf.printf "stopped after %d context(s): area=%.1f power=%.3f (reason: %s)\n"
        r.S.coverage.S.contexts_done r.S.eval.Cost.area r.S.eval.Cost.power
        (match r.S.coverage.S.stop_reason with Some s -> s | None -> "-")
