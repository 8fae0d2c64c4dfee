(* Tests for the textual DFG exchange format: parsing, printing,
   round-tripping, error reporting. *)

module Text = Hsyn_dfg.Text
module Dfg = Hsyn_dfg.Dfg
module Registry = Hsyn_dfg.Registry
module Flatten = Hsyn_dfg.Flatten

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let example =
  {|
# a behavior with one variant
behavior madd variant madd_v1
  input p
  input q
  op m mult p q
  output y m
end

dfg top
  input x
  input w
  const k 3
  op s add x w
  delay z s init 1
  call f madd 1 s z
  op t add f.0 k
  output o t
end
|}

let test_parse_basic () =
  let prog = Text.parse_string example in
  checki "one graph" 1 (List.length prog.Text.graphs);
  checkb "behavior registered" true (Registry.mem prog.Text.registry "madd");
  let g = List.hd prog.Text.graphs in
  checkb "name" true (g.Dfg.name = "top");
  checki "inputs" 2 (Array.length g.Dfg.inputs);
  checki "ops" 2 (Dfg.n_operations g);
  checki "calls" 1 (Dfg.n_calls g);
  checkb "validates" true (Dfg.validate g = Ok ());
  checkb "calls resolve" true (Registry.check_calls prog.Text.registry g = Ok ())

let test_roundtrip () =
  let prog = Text.parse_string example in
  let printed = Text.to_string prog in
  let prog2 = Text.parse_string printed in
  let g1 = List.hd prog.Text.graphs and g2 = List.hd prog2.Text.graphs in
  checkb "graph preserved" true (Dfg.equal g1 g2);
  checkb "behavior preserved" true
    (Dfg.equal (Registry.default_variant prog.Text.registry "madd")
       (Registry.default_variant prog2.Text.registry "madd"))

let test_delay_forward_reference () =
  (* the delay references a node defined later in the block *)
  let src = {|
dfg fwd
  input x
  delay z later
  op later add x z
  output o later
end
|} in
  let prog = Text.parse_string src in
  let g = List.hd prog.Text.graphs in
  checkb "valid" true (Dfg.validate g = Ok ())

(* Programs the registry refuses or whose behaviors keep state. *)
let mismatched_variants =
  "behavior f variant f1\n  input a\n  input b\n  op s add a b\n  output y s\nend\n\
   behavior f variant f2\n  input a\n  op s neg a\n  output y s\nend\n\
   dfg top\n  input x\n  input y\n  call c1 f 1 x y\n  output o c1\nend\n"

let stateful_behavior =
  "behavior acc variant acc0\n  input a\n  delay z s\n  op s add a z\n  output y s\nend\n\
   dfg top\n  input x\n  call c1 acc 1 x\n  call c2 acc 1 c1\n  output o c2\nend\n"

let expect_error src =
  match Text.parse_string src with
  | exception Text.Parse_error (_, _) -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_errors () =
  expect_error "dfg a\n  op x bogus y z\nend";
  expect_error "dfg a\n  input x\n  output o nosuch\nend";
  expect_error "dfg a\n  input x\n";
  (* missing end *)
  expect_error "  input x\n";
  (* statement outside block *)
  expect_error "dfg a\n  input x\n  input x\nend";
  (* duplicate label *)
  expect_error "dfg a\ndfg b\nend\nend";
  (* two variants of one behavior with different interfaces *)
  expect_error mismatched_variants;
  (* two variants of one behavior with the same name *)
  expect_error
    "behavior f variant f1\n  input a\n  op s neg a\n  output y s\nend\n\
     behavior f variant f1\n  input a\n  op s abs a\n  output y s\nend\n\
     dfg top\n  input x\n  call c1 f 1 x\n  output o c1\nend\n";
  (* a call with a negative output count, refused like one with none *)
  expect_error "dfg a\n  input x\n  call c1 f -1 x\n  output o c1\nend";
  (* output counts above the program's statement count, one that fits
     in memory and one that does not: refused at the call's line before
     any port is allocated *)
  List.iter
    (fun count ->
      match
        Text.parse_string
          (Printf.sprintf "dfg top\n  input x\n  call c1 f %s x\n  output o c1\nend\n" count)
      with
      | exception Text.Parse_error (line, _) -> checki ("count " ^ count ^ ": at the call") 3 line
      | _ -> Alcotest.failf "count %s: expected Parse_error" count)
    [ "10000000"; "4611686018427387903" ];
  (* a delay inside a behavior: behaviors are stateless *)
  expect_error stateful_behavior;
  match Text.parse_string stateful_behavior with
  | exception Text.Parse_error (line, msg) ->
      checki "at the delay" 3 line;
      checks "names the behavior and the delay"
        "behavior acc variant acc0: delay z: behaviors must be stateless" msg
  | _ -> Alcotest.fail "expected Parse_error"

let test_error_line_numbers () =
  List.iter
    (fun (what, src, expected) ->
      match Text.parse_string src with
      | exception Text.Parse_error (line, _) -> checki what expected line
      | _ -> Alcotest.failf "%s: expected Parse_error" what)
    [
      ("undefined source", "dfg a\n  input x\n  op m mult x nosuch\nend", 3);
      (* an output port the source does not have, read on an op and on
         a one-output call *)
      ("op port", "dfg top\n  input x\n  op s neg x\n  output o s.3\nend\n", 4);
      ( "call port",
        "behavior f variant f1\n  input a\n  op s neg a\n  output y s\nend\n\
         dfg top\n  input x\n  call c1 f 1 x\n  output o c1.4\nend\n",
        9 );
    ]

let test_crlf () =
  (* a Windows-edited file: every line terminated with \r\n. Each line's
     trailing \r used to survive tokenization and turn the whole file
     into parse errors. *)
  let crlf = String.concat "\r\n" (String.split_on_char '\n' example) in
  let prog = Text.parse_string example in
  let prog_crlf = Text.parse_string crlf in
  checki "one graph" 1 (List.length prog_crlf.Text.graphs);
  checkb "graph identical to LF parse" true
    (Dfg.equal (List.hd prog.Text.graphs) (List.hd prog_crlf.Text.graphs));
  checkb "behavior identical to LF parse" true
    (Dfg.equal
       (Registry.default_variant prog.Text.registry "madd")
       (Registry.default_variant prog_crlf.Text.registry "madd"));
  (* stray \r elsewhere in a line is whitespace, not part of a token *)
  let prog_mid = Text.parse_string "dfg g\r\n  input\rx\r\n  output y x\r\nend\r\n" in
  checki "mid-line CR" 1 (List.length prog_mid.Text.graphs)

let test_comments_and_blanks () =
  let src = "# leading comment\n\ndfg g # trailing\n  input x\n  output y x\nend\n" in
  let prog = Text.parse_string src in
  checki "parsed" 1 (List.length prog.Text.graphs)

let test_call_multi_output () =
  let src =
    {|
behavior split variant split_v
  input a
  input b
  op s add a b
  op d sub a b
  output o1 s
  output o2 d
end

dfg top
  input x
  input y
  call c split 2 x y
  op m mult c.0 c.1
  output o m
end
|}
  in
  let prog = Text.parse_string src in
  let g = List.hd prog.Text.graphs in
  checkb "valid" true (Dfg.validate g = Ok ());
  (* flatten through the registry to check connectivity of out port 1 *)
  let flat = Flatten.flatten prog.Text.registry g in
  checki "ops" 3 (Dfg.n_operations flat)

(* dump → parse over every built-in benchmark: the registry (every
   variant of every behavior) and the top graph must survive the text
   format structurally intact *)
let test_roundtrip_all_benchmarks () =
  List.iter
    (fun (b : Hsyn_benchmarks.Suite.t) ->
      let module Suite = Hsyn_benchmarks.Suite in
      let prog = { Text.registry = b.Suite.registry; graphs = [ b.Suite.dfg ] } in
      let reparsed = Text.parse_string (Text.to_string prog) in
      let ctx msg = Printf.sprintf "%s: %s" b.Suite.name msg in
      (match reparsed.Text.graphs with
      | [ g ] -> checkb (ctx "top graph preserved") true (Dfg.equal b.Suite.dfg g)
      | gs -> Alcotest.failf "%s: expected 1 graph, got %d" b.Suite.name (List.length gs));
      let names r = List.sort compare (Registry.behaviors r) in
      Alcotest.(check (list string))
        (ctx "behaviors preserved") (names b.Suite.registry) (names reparsed.Text.registry);
      List.iter
        (fun bname ->
          let vs1 = Registry.variants b.Suite.registry bname in
          let vs2 = Registry.variants reparsed.Text.registry bname in
          checki (ctx (bname ^ " variant count")) (List.length vs1) (List.length vs2);
          List.iter2
            (fun v1 v2 -> checkb (ctx (bname ^ " variant preserved")) true (Dfg.equal v1 v2))
            vs1 vs2)
        (names b.Suite.registry))
    (Hsyn_benchmarks.Suite.all () @ [ Hsyn_benchmarks.Suite.paulin () ])

let multi_graph_example = example ^ "\n\ndfg second\n  input a\n  output o a\nend\n"

let test_select_graph () =
  let prog = Text.parse_string example in
  (match Text.select_graph prog with
  | Ok g -> checkb "single graph picked" true (g.Dfg.name = "top")
  | Error e -> Alcotest.fail e);
  let multi = Text.parse_string multi_graph_example in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Text.select_graph multi with
  | Ok _ -> Alcotest.fail "ambiguous selection must be an error"
  | Error msg ->
      (* the error must list what is available *)
      checkb "mentions both names" true (contains msg "top" && contains msg "second"));
  (match Text.select_graph ~name:"second" multi with
  | Ok g -> checkb "named pick" true (g.Dfg.name = "second")
  | Error e -> Alcotest.fail e);
  match Text.select_graph ~name:"nope" multi with
  | Ok _ -> Alcotest.fail "unknown name must be an error"
  | Error _ -> ()

let test_to_dot () =
  let prog = Text.parse_string example in
  let dot = Text.to_dot (List.hd prog.Text.graphs) in
  checkb "has digraph" true (String.length dot > 20 && String.sub dot 0 7 = "digraph")

let test_parse_file () =
  let path = Filename.temp_file "hsyn" ".dfg" in
  let oc = open_out path in
  output_string oc example;
  close_out oc;
  let prog = Text.parse_file path in
  Sys.remove path;
  checki "one graph" 1 (List.length prog.Text.graphs)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "text"
    [
      ( "parse",
        [
          tc "basic" test_parse_basic;
          tc "delay forward reference" test_delay_forward_reference;
          tc "errors" test_errors;
          tc "error line numbers" test_error_line_numbers;
          tc "comments and blanks" test_comments_and_blanks;
          tc "crlf line endings" test_crlf;
          tc "call multi-output" test_call_multi_output;
          tc "from file" test_parse_file;
        ] );
      ( "print",
        [
          tc "roundtrip" test_roundtrip;
          tc "roundtrip all benchmarks" test_roundtrip_all_benchmarks;
          tc "to_dot" test_to_dot;
        ] );
      ("select", [ tc "select_graph" test_select_graph ]);
    ]
