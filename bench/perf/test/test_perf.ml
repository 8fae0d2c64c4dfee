(* Tests of the benchmark harness: its statistics, its metric catalog
   against BENCHMARK.json, a paulin-only run of each workload shape, and
   planted wrong answers that the checks must count as failed. *)

open Hsyn_perf
module W = Workload
module Json = Hsyn_util.Json
module Rng = Hsyn_util.Rng
module Cost = Hsyn_core.Cost
module Wire = Hsyn_core.Wire
module S = Hsyn_core.Synthesize

let close = Alcotest.float 1e-12
let triple (a, b, c) = [ a; b; c ]

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Reference values from Python's statistics.quantiles(v, n=4). *)
let test_quartiles () =
  let check name expected values =
    Alcotest.(check (list close)) name expected (triple (Pstats.quartiles values))
  in
  check "1..10" [ 2.75; 5.5; 8.25 ] (List.init 10 (fun i -> Float.of_int (i + 1)));
  check "two values" [ 0.75; 1.5; 2.25 ] [ 2.; 1. ];
  check "unsorted" [ 1.625; 3.5; 8.375 ] [ 3.5; 1.25; 9.0; 2.0; 7.75 ];
  Alcotest.(check close) "spread" (5.5 /. 5.5) (Pstats.spread (List.init 10 (fun i -> Float.of_int (i + 1))))

let test_geomean () =
  Alcotest.(check close) "geomean" 4. (Hsyn_util.Stats.geomean [ 2.; 8. ]);
  Alcotest.(check close) "median" 2. (Hsyn_util.Stats.median [ 3.; 1.; 2. ])

let test_tail_rule () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) expected (Pstats.tail_percentile n))
    [
      (19, None);
      (20, Some 50.);
      (39, Some 50.);
      (40, Some 75.);
      (99, Some 75.);
      (112, Some 90.);
      (200, Some 95.);
      (1000, Some 99.);
      (10000, Some 99.9);
    ];
  List.iter
    (fun (p, n) ->
      Alcotest.(check int) (Printf.sprintf "samples for p%g" p) n (Pstats.samples_for p);
      Alcotest.(check (option (float 0.))) "reaches it" (Some p) (Pstats.tail_percentile n);
      Alcotest.(check bool) "one fewer does not" true (Pstats.tail_percentile (n - 1) <> Some p))
    [ (50., 20); (75., 40); (90., 100) ]

(* Passes follow --seconds on the reference host, but never send fewer
   requests than the latency percentile needs. *)
let test_pass_count () =
  let one = W.Serve [ W.synth_item ~objective:Cost.Area ~lf:2.2 "paulin" (Wire.Bench "paulin") ] in
  let count ~seconds = Run.pass_count ~min_requests:40 ~seconds ~reference_pass_s:2. one in
  Alcotest.(check int) "seconds decide" 30 (count ~seconds:60.);
  Alcotest.(check int) "requests decide" (40 / W.clients) (count ~seconds:6.)

(* A stalled repeat of a request does not reach the percentiles. *)
let test_repeat_medians () =
  Alcotest.(check (list close))
    "median of each request's repeats" [ 3.; 10.; 3.; 3. ]
    (Run.repeat_medians [ ("a", 1.); ("b", 10.); ("a", 3.); ("a", 100.) ])

(* ------------------------------------------------------------------ *)
(* The catalog is BENCHMARK.json *)

let benchmark_json () =
  let ic = open_in_bin "../../../BENCHMARK.json" in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.of_string text with Ok j -> j | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let entries key j = match Json.member key j with Some (Json.List l) -> l | _ -> Alcotest.fail ("no " ^ key)
let str key e = Option.get (Option.bind (Json.member key e) Json.to_string_opt)
let better_name = function Catalog.Lower -> "lower" | Catalog.Higher -> "higher"

let test_catalog_matches_json () =
  let j = benchmark_json () in
  Alcotest.(check (list string)) "workloads" W.names (List.map (str "name") (entries "workloads" j));
  Alcotest.(check (list (pair string (pair string (pair string (float 0.))))))
    "end_to_end"
    (List.map
       (fun (m : Catalog.metric) -> (m.name, (m.unit_, (better_name m.better, m.bound))))
       Catalog.end_to_end)
    (List.map
       (fun e ->
         ( str "name" e,
           (str "unit" e, (str "better" e, Option.get (Option.bind (Json.member "bound" e) Json.to_float_opt))) ))
       (entries "end_to_end" j));
  Alcotest.(check (list (pair string (pair string string))))
    "per_layer"
    (List.map (fun (m : Catalog.metric) -> (m.name, (m.unit_, better_name m.better))) Catalog.per_layer)
    (List.map (fun e -> (str "name" e, (str "unit" e, str "better" e))) (entries "per_layer" j))

(* ------------------------------------------------------------------ *)
(* Paulin-only runs of each workload shape *)

let paulin () = Option.get (Hsyn_benchmarks.Suite.by_name "paulin")
let case ~objective ~flatten = W.make_case ~rng:(Rng.create 7) ~objective ~flatten ~lf:2.2 (paulin ())
let names (o : Run.outcome) = List.map fst o.Run.metrics
let catalog_names l = List.map (fun (m : Catalog.metric) -> m.Catalog.name) l

let untraced name shape =
  Run.untraced ~setup_budget_s:0. ~min_requests:1 ~name ~seed:7 ~seconds:0. ~reference_pass_s:1. (fun () -> shape)

let check_clean ~attempted (o : Run.outcome) =
  Alcotest.(check (list string)) "no failures" [] o.Run.failures;
  Alcotest.(check int) "attempted" attempted o.Run.attempted;
  List.iter
    (fun (name, v) -> if not (Float.is_finite v) then Alcotest.failf "%s is not finite" name)
    o.Run.metrics

let test_power_hier_shape () =
  let o = untraced "test_power_hier" (W.Batch [ case ~objective:Cost.Power ~flatten:false ]) in
  check_clean ~attempted:1 o;
  Alcotest.(check (list string)) "end-to-end names" (catalog_names Catalog.end_to_end) (names o)

let test_area_flat_traced () =
  let shape = W.Batch [ case ~objective:Cost.Area ~flatten:true ] in
  let o = Run.traced ~name:"test_area_flat" ~seed:7 (fun () -> shape) in
  check_clean ~attempted:3 o;
  Alcotest.(check (list string)) "per-layer names" (catalog_names Catalog.per_layer) (names o);
  Alcotest.(check (float 0.)) "nothing dropped" 0. (List.assoc "trace_dropped" o.Run.metrics);
  Alcotest.(check bool) "a trace was written" true (Sys.file_exists "_perf/test_area_flat.trace.json")

let test_serve_mix_shape () =
  let synth = W.synth_item ~objective:Cost.Area ~lf:2.2 "paulin" (Wire.Bench "paulin") in
  let malformed = W.Malformed { label = "malformed"; line = W.malformed_line } in
  let o = untraced "test_serve_mix" (W.Serve [ synth; malformed ]) in
  check_clean ~attempted:(W.clients * 2) o;
  Alcotest.(check (list string)) "end-to-end names" (catalog_names Catalog.end_to_end) (names o)

(* ------------------------------------------------------------------ *)
(* Planted wrong answers *)

let test_planted_result () =
  let c = case ~objective:Cost.Area ~flatten:true in
  let p = W.batch_pass [ c ] () in
  let s = List.hd p.W.subjects in
  let r = s.W.result in
  Alcotest.(check (list string)) "the real answer passes" [] (W.check_case c r);
  let off_by_one = { r with S.eval = { r.S.eval with Cost.area = r.S.eval.Cost.area +. 1. } } in
  Alcotest.(check bool) "a wrong reported area fails" true (W.check_case c off_by_one <> []);
  let other =
    W.make_case ~rng:(Rng.create 7) ~objective:Cost.Area ~flatten:true ~lf:2.2
      (Option.get (Hsyn_benchmarks.Suite.by_name "test1"))
  in
  Alcotest.(check bool) "another behavior's design fails" true (W.check_case other r <> [])

let test_planted_counted () =
  let c = case ~objective:Cost.Area ~flatten:true in
  let wrong = { c with W.reference = List.map (Array.map (fun v -> v + 1)) c.W.reference } in
  let o = untraced "test_planted" (W.Batch [ c; wrong ]) in
  Alcotest.(check int) "attempted" 2 o.Run.attempted;
  Alcotest.(check int) "failed" 1 (Run.failed o)

let test_planted_serve_answers () =
  let ok = function W.Ok_result _ -> true | _ -> false in
  let v = W.verdict_of_final Cost.Area in
  Alcotest.(check bool) "feasible result" true
    (ok (v {|{"kind":"hsyn.result","eval":{"area":10.5,"feasible":true}}|}));
  Alcotest.(check bool) "infeasible result" false
    (ok (v {|{"kind":"hsyn.result","eval":{"area":10.5,"feasible":false}}|}));
  Alcotest.(check bool) "overloaded" true
    (v {|{"kind":"hsyn.error","code":"overloaded","message":"x"}|} = W.Overloaded);
  Alcotest.(check bool) "not JSON" false (ok (v "[[["))

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "pass count" `Quick test_pass_count;
          Alcotest.test_case "repeat medians" `Quick test_repeat_medians;
        ] );
      ("catalog", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalog_matches_json ]);
      ( "smoke",
        [
          Alcotest.test_case "power_hier shape" `Quick test_power_hier_shape;
          Alcotest.test_case "area_flat shape, traced" `Quick test_area_flat_traced;
          Alcotest.test_case "serve_mix shape" `Quick test_serve_mix_shape;
        ] );
      ( "planted",
        [
          Alcotest.test_case "wrong results fail the checks" `Quick test_planted_result;
          Alcotest.test_case "a wrong answer is counted" `Quick test_planted_counted;
          Alcotest.test_case "serve answers" `Quick test_planted_serve_answers;
        ] );
    ]
