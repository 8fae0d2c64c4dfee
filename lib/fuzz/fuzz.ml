module Rng = Hsyn_util.Rng
module Metrics = Hsyn_obs.Metrics
module Text = Hsyn_dfg.Text

type config = {
  seed : int;
  runs : int;
  oracles : string list;
  corpus : string option;
  params : Gen.params;
  shrink_checks : int;
}

let default_config =
  { seed = 0; runs = 100; oracles = []; corpus = None; params = Gen.default_params; shrink_checks = 300 }

type failure = {
  oracle : string;
  run : int;
  message : string;
  repro_path : string option;
  shrink : Shrink.stats;
}

type oracle_summary = { o_name : string; passed : int; failed : int }
type report = { total_runs : int; summaries : oracle_summary list; failures : failure list }

let validate_oracles names =
  match List.filter (fun n -> Oracle.find n = None) names with
  | [] -> Ok ()
  | unknown ->
      Error
        (Printf.sprintf "unknown oracle%s %s (known: %s)"
           (if List.length unknown > 1 then "s" else "")
           (String.concat ", " unknown)
           (String.concat ", " Oracle.names))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_repro dir ~oracle ~seed ~run ~message prog (stats : Shrink.stats) =
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d-run%d.hsyn" oracle seed run) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# hsyn fuzz repro\n# oracle: %s\n# seed %d, run %d\n" oracle seed run;
      Printf.fprintf oc "# shrunk %d -> %d nodes in %d steps (%d oracle re-runs)\n"
        stats.Shrink.size_before stats.Shrink.size_after stats.Shrink.steps
        stats.Shrink.checks_used;
      String.split_on_char '\n' message
      |> List.iter (fun line -> Printf.fprintf oc "# %s\n" line);
      output_string oc (Text.to_string prog));
  path

let check_guarded (o : Oracle.t) rng prog =
  match o.Oracle.check rng prog with
  | r -> r
  | exception e ->
      Error (Printf.sprintf "uncaught exception: %s" (Printexc.to_string e))

let run ?(progress = fun _ -> ()) config =
  let runs_counter = Metrics.counter "fuzz.runs" in
  let counters =
    List.map
      (fun (o : Oracle.t) ->
        (o.Oracle.name, Metrics.counter ("fuzz.pass." ^ o.Oracle.name),
         Metrics.counter ("fuzz.fail." ^ o.Oracle.name)))
      Oracle.all
  in
  let selected (o : Oracle.t) = config.oracles = [] || List.mem o.Oracle.name config.oracles in
  let passed = Hashtbl.create 8 and failed = Hashtbl.create 8 in
  let bump tbl name = Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)) in
  let failures = ref [] in
  let base = Rng.create config.seed in
  for i = 0 to config.runs - 1 do
    progress i;
    Metrics.incr runs_counter;
    let run_rng = Rng.split base in
    let prog = Gen.program ~params:config.params (Rng.split run_rng) in
    List.iter
      (fun (o : Oracle.t) ->
        if selected o then begin
          (* keyed by the oracle's name, so a stream depends neither on
             which oracles are selected nor on which are registered *)
          let orng = Rng.derive run_rng o.Oracle.name in
          let saved = Rng.copy orng in
          match check_guarded o orng prog with
          | Ok () ->
              bump passed o.Oracle.name;
              let _, pc, _ = List.find (fun (n, _, _) -> n = o.Oracle.name) counters in
              Metrics.incr pc
          | Error message ->
              bump failed o.Oracle.name;
              let _, _, fc = List.find (fun (n, _, _) -> n = o.Oracle.name) counters in
              Metrics.incr fc;
              let still_fails p = Result.is_error (check_guarded o (Rng.copy saved) p) in
              let shrunk, stats = Shrink.shrink ~max_checks:config.shrink_checks ~still_fails prog in
              let repro_path =
                Option.map
                  (fun dir ->
                    write_repro dir ~oracle:o.Oracle.name ~seed:config.seed ~run:i ~message shrunk
                      stats)
                  config.corpus
              in
              failures :=
                { oracle = o.Oracle.name; run = i; message; repro_path; shrink = stats }
                :: !failures
        end)
      Oracle.all
  done;
  let summaries =
    List.filter_map
      (fun (o : Oracle.t) ->
        if not (selected o) then None
        else
          Some
            {
              o_name = o.Oracle.name;
              passed = Option.value ~default:0 (Hashtbl.find_opt passed o.Oracle.name);
              failed = Option.value ~default:0 (Hashtbl.find_opt failed o.Oracle.name);
            })
      Oracle.all
  in
  { total_runs = config.runs; summaries; failures = List.rev !failures }
