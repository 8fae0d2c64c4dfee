(* perf.exe — the H-SYN benchmark.

     dune exec -- ./bench/perf/perf.exe \
       --workload power_hier|area_flat|serve_mix [--seed N] [--seconds S] [--trace 0|1]

   Runs one workload in this process and prints a [header] JSON line,
   [info <name> <value> <unit>] lines, one [metric <name> <value> <unit>]
   line per metric, and, as the last line,
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
   With --trace 0 the metrics are the end-to-end ones, measured over as
   many passes as take --seconds on the reference host (Run.pass_count).
   With --trace 1
   they are the per-layer ones, and the spans go to
   _perf/<workload>.trace.json. Failed checks are listed on stderr; the
   exit code is 0 unless the harness itself fails. *)

open Hsyn_perf
module Json = Hsyn_util.Json
module Sched = Hsyn_sched.Sched

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

type args = { workload : string; seed : int; seconds : float; traced : bool }

let parse_args () =
  let workload = ref "" and seed = ref 42 and seconds = ref 15. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Workload.names);
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of an untraced run (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> die "unexpected argument %S" a) "perf.exe --workload NAME [options]";
  if not (List.mem !workload Workload.names) then
    die "--workload must be one of %s" (String.concat ", " Workload.names);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0. then die "--seconds must be positive";
  { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace = 1 }

(* The commit of the checkout when it is a git work tree. *)
let commit () =
  let read path = String.trim (Run.read_file path) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      match read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) with
      | sha -> sha
      | exception Sys_error _ -> "unknown")
  | sha -> sha

(* Values keep all 17 significant digits (Json.to_string keeps 12). *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_outcome (o : Run.outcome) =
  List.iter (fun m -> prerr_endline ("perf: FAILED " ^ m)) o.Run.failures;
  List.iter (fun (name, v, unit_) -> Printf.printf "info %s %s %s\n" name (number v) unit_) o.Run.info;
  let str s = Json.to_string (Json.String s) in
  let fields =
    List.map
      (fun (name, v) ->
        let unit_ = (Option.get (Catalog.find name)).Catalog.unit_ in
        Printf.printf "metric %s %s %s\n" name (number v) unit_;
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (str name) (number v) (str unit_))
      o.Run.metrics
  in
  let failed = Run.failed o in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" (failed = 0)
    o.Run.attempted failed (String.concat "," fields)

let () =
  let args = parse_args () in
  if Sched.impl () = Sched.Legacy then
    die "HSYN_SCHED=legacy selects the reference scheduler; unset it to benchmark";
  Printf.printf "header %s\n%!"
    (Json.to_string
       (Json.Obj
          [
            ("kind", Json.String "hsyn.perf");
            ("workload", Json.String args.workload);
            ("seed", Json.Int args.seed);
            ("seconds", Json.Float args.seconds);
            ("traced", Json.Bool args.traced);
            ("jobs", Json.Int Workload.policy.Hsyn_core.Engine.jobs);
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.String Sys.ocaml_version);
            ("commit", Json.String (commit ()));
          ]));
  let make () = Option.get (Workload.make ~seed:args.seed args.workload) in
  let name = args.workload and seed = args.seed in
  print_outcome
    (if args.traced then Run.traced ~name ~seed make
     else Run.untraced ~name ~seed ~seconds:args.seconds ~reference_pass_s:(Workload.reference_pass_s name) make)
