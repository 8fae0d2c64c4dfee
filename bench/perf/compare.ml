(* compare.exe — compare sets of perf.exe run outputs.

     compare.exe PARENT_DIR CHANGE_DIR    parent against change
     compare.exe --agree A_DIR B_DIR      two sets of runs of one commit

   Each directory holds the standard output of perf.exe runs, one file
   per run; files are paired in name order, so name them so that the
   i-th parent run and the i-th change run were made one after the
   other (alternating which goes first). Every (workload, metric) gets
   its own row with each side's median and quartiles.

   Against a parent, an end-to-end metric is
     improved    when the change wins at least 9 of 10 pairs and the
                 medians differ by more than the parent's quartile range;
     unresolved  when either side's spread (quartile range over median)
                 exceeds the metric's bound;
     regressed   when the change's median is worse by more than the bound;
     ok          otherwise.
   With --agree, a metric agrees when the medians differ by at most the
   bound and both spreads are within it.
   Per-layer metrics have no bound: their rows are information, and
   counts are marked exact when every run read the same value.
   Exits 1 when a metric regressed or disagreed. *)

open Hsyn_perf
module Json = Hsyn_util.Json
module Table = Hsyn_util.Table

type run = { workload : string; metrics : (string * float) list }

let parse_run path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let workload = ref None and metrics = ref [] in
      (try
         while true do
           let line = input_line ic in
           match String.split_on_char ' ' line with
           | "header" :: rest -> (
               match Json.of_string (String.concat " " rest) with
               | Ok j -> workload := Option.bind (Json.member "workload" j) Json.to_string_opt
               | Error _ -> ())
           | [ "metric"; name; value; _unit ] -> (
               match float_of_string_opt value with
               | Some v -> metrics := (name, v) :: !metrics
               | None -> ())
           | _ -> ()
         done
       with End_of_file -> ());
      Option.map (fun workload -> { workload; metrics = List.rev !metrics }) !workload)

let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then None else parse_run path)

let values runs workload name =
  List.filter_map (fun r -> if r.workload = workload then List.assoc_opt name r.metrics else None) runs

(* Relative worsening of [b] against [a]; positive is worse. *)
let worse_by (m : Catalog.metric) a b =
  let d = (b -. a) /. Float.abs a in
  match m.Catalog.better with Catalog.Lower -> d | Catalog.Higher -> -.d

let better (m : Catalog.metric) a b = worse_by m a b < 0.

let summary vs =
  let q1, q2, q3 = Pstats.quartiles vs in
  Printf.sprintf "%.6g [%.6g, %.6g]" q2 q1 q3

let pct x = Printf.sprintf "%+.2f%%" (100. *. x)

let verdict_change (m : Catalog.metric) ps cs =
  let n = min (List.length ps) (List.length cs) in
  let take l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (take ps) (take cs) in
  let wins = List.length (List.filter (fun (p, c) -> better m p c) pairs) in
  let win_frac = Float.of_int wins /. Float.of_int (max 1 (List.length pairs)) in
  let pq1, pm, pq3 = Pstats.quartiles ps and _, cm, _ = Pstats.quartiles cs in
  let verdict =
    if Float.is_nan m.Catalog.bound then "-"
    else if win_frac >= 0.9 && better m pm cm && Float.abs (cm -. pm) > pq3 -. pq1 then "improved"
    else if Float.max (Pstats.spread ps) (Pstats.spread cs) > m.Catalog.bound then "unresolved"
    else if worse_by m pm cm > m.Catalog.bound then "regressed"
    else "ok"
  in
  (Printf.sprintf "%d/%d" wins (List.length pairs), verdict)

let verdict_agree (m : Catalog.metric) a b =
  if Float.is_nan m.Catalog.bound then
    if m.Catalog.unit_ = "count" && List.for_all (( = ) (List.hd a)) (a @ b) then "exact" else "-"
  else
    let _, am, _ = Pstats.quartiles a and _, bm, _ = Pstats.quartiles b in
    let spreads_ok = Float.max (Pstats.spread a) (Pstats.spread b) <= m.Catalog.bound in
    if spreads_ok && Float.abs (worse_by m am bm) <= m.Catalog.bound then "agree" else "disagree"

let () =
  let agree, a_dir, b_dir =
    match Array.to_list Sys.argv |> List.tl with
    | [ "--agree"; a; b ] -> (true, a, b)
    | [ a; b ] -> (false, a, b)
    | _ ->
        prerr_endline "usage: compare.exe [--agree] A_DIR B_DIR";
        exit 2
  in
  let a = load a_dir and b = load b_dir in
  if a = [] || b = [] then begin
    prerr_endline "compare: a directory holds no perf.exe output";
    exit 2
  end;
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) a)
    |> List.filter (fun w -> List.exists (fun r -> r.workload = w) b)
  in
  let a_name, b_name = if agree then ("set A", "set B") else ("parent", "change") in
  let t =
    Table.create
      ~header:
        [
          "workload";
          "metric";
          "unit";
          a_name ^ " median [q1, q3]";
          b_name ^ " median [q1, q3]";
          "delta";
          "wins";
          "verdict";
        ]
  in
  let bad = ref 0 in
  List.iter
    (fun w ->
      let na = List.length (List.filter (fun r -> r.workload = w) a)
      and nb = List.length (List.filter (fun r -> r.workload = w) b) in
      let wanted = if agree then 5 else 10 in
      if min na nb < wanted then
        Printf.printf "warning: %s has %d and %d runs; at least %d per side are needed\n" w na nb wanted;
      List.iter
        (fun (m : Catalog.metric) ->
          match (values a w m.Catalog.name, values b w m.Catalog.name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let _, am, _ = Pstats.quartiles va and _, bm, _ = Pstats.quartiles vb in
              let wins, verdict = if agree then ("", verdict_agree m va vb) else verdict_change m va vb in
              if verdict = "regressed" || verdict = "disagree" then incr bad;
              let delta = pct ((bm -. am) /. Float.abs am) in
              Table.add_row t
                [ w; m.Catalog.name; m.Catalog.unit_; summary va; summary vb; delta; wins; verdict ])
        (Catalog.end_to_end @ Catalog.per_layer))
    workloads;
  Table.print t;
  exit (if !bad > 0 then 1 else 0)
