type reason = Deadline | Cancelled | Context_quota

let reason_name = function
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"
  | Context_quota -> "context-quota"

exception Interrupted of reason

let () =
  Printexc.register_printer (function
    | Interrupted r -> Some (Printf.sprintf "Hsyn_core.Budget.Interrupted(%s)" (reason_name r))
    | _ -> None)

type t = { deadline_s : float option; max_contexts : int option }

let unlimited = { deadline_s = None; max_contexts = None }

let make ?deadline_s ?max_contexts () =
  match (deadline_s, max_contexts) with
  | Some v, _ when v <= 0. -> Error "budget: deadline_s must be positive"
  | _, Some v when v <= 0 -> Error "budget: max_contexts must be positive"
  | _ -> Ok { deadline_s; max_contexts }

let is_unlimited t = t = unlimited

let pp ppf t =
  if is_unlimited t then Format.fprintf ppf "unlimited"
  else begin
    let parts = ref [] in
    Option.iter (fun v -> parts := Printf.sprintf "contexts<=%d" v :: !parts) t.max_contexts;
    Option.iter (fun v -> parts := Printf.sprintf "%.3gs" v :: !parts) t.deadline_s;
    Format.pp_print_string ppf (String.concat " " !parts)
  end

type token = {
  spec : t;
  started_at : float;
  cancel_flag : bool Atomic.t;
  (* [contexts] is only bumped from the domain driving the synthesis
     loop; reads from worker domains (via the cancel poll) only touch
     [cancel_flag] and the clock, so no further synchronization is
     needed *)
  mutable contexts : int;
}

let start spec =
  { spec; started_at = Unix.gettimeofday (); cancel_flag = Atomic.make false; contexts = 0 }

let cancel t = Atomic.set t.cancel_flag true
let cancelled t = Atomic.get t.cancel_flag
let elapsed_s t = Unix.gettimeofday () -. t.started_at
let note_context t = t.contexts <- t.contexts + 1

let interrupted t =
  if Atomic.get t.cancel_flag then Some Cancelled
  else
    match t.spec.deadline_s with
    | Some d when elapsed_s t >= d -> Some Deadline
    | _ -> None

let exhausted t =
  match interrupted t with
  | Some r -> Some r
  | None -> (
      match t.spec.max_contexts with
      | Some q when t.contexts >= q -> Some Context_quota
      | _ -> None)

let check t = match interrupted t with Some r -> raise (Interrupted r) | None -> ()
