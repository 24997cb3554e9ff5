open Rr_gml

let sample =
  {|# Topology Zoo style document
graph [
  label "Tiny"
  directed 0
  node [
    id 0
    label "Chicago, IL"
    Latitude 41.88
    Longitude -87.63
  ]
  node [
    id 5
    label "Boston, MA"
    Latitude 42.36
    Longitude -71.06
  ]
  edge [
    source 0
    target 5
  ]
]
|}

(* --- Lexer --- *)

let test_lexer_tokens () =
  let toks = Lexer.tokens {|graph [ id 3 x 2.5 s "hi" ]|} in
  Alcotest.(check int) "token count" 10 (List.length toks);
  match toks with
  | [ Lexer.Key "graph"; Lexer.Lbracket; Lexer.Key "id"; Lexer.Int_lit 3;
      Lexer.Key "x"; Lexer.Float_lit 2.5; Lexer.Key "s"; Lexer.String_lit "hi";
      Lexer.Rbracket; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_negative_numbers () =
  match Lexer.tokens "x -87.63 y -3" with
  | [ Lexer.Key "x"; Lexer.Float_lit f; Lexer.Key "y"; Lexer.Int_lit (-3); Lexer.Eof ] ->
    Alcotest.(check (float 1e-9)) "negative float" (-87.63) f
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_comments () =
  match Lexer.tokens "# comment line\nid 1" with
  | [ Lexer.Key "id"; Lexer.Int_lit 1; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "comment not skipped"

let test_lexer_escaped_string () =
  match Lexer.tokens {|label "a \"quoted\" name"|} with
  | [ Lexer.Key "label"; Lexer.String_lit s; Lexer.Eof ] ->
    Alcotest.(check string) "unescaped" {|a "quoted" name|} s
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_unterminated () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Lexer.tokens {|label "oops|});
       false
     with Lexer.Error _ -> true)

let test_lexer_exponent () =
  match Lexer.tokens "v 1.5e3" with
  | [ Lexer.Key "v"; Lexer.Float_lit f; Lexer.Eof ] ->
    Alcotest.(check (float 1e-9)) "exponent" 1500.0 f
  | _ -> Alcotest.fail "unexpected tokens"

(* --- Parser --- *)

let test_parse_sample () =
  let doc = Parser.parse sample in
  match Ast.find doc "graph" with
  | Some (Ast.List pairs) ->
    Alcotest.(check int) "two nodes" 2 (List.length (Ast.find_all pairs "node"));
    Alcotest.(check int) "one edge" 1 (List.length (Ast.find_all pairs "edge"));
    (match Ast.find pairs "label" with
    | Some (Ast.String "Tiny") -> ()
    | _ -> Alcotest.fail "label")
  | _ -> Alcotest.fail "no graph"

let test_parse_errors () =
  let fails s =
    try
      ignore (Parser.parse s);
      false
    with Parser.Error _ -> true
  in
  Alcotest.(check bool) "missing value" true (fails "graph [ id ]");
  Alcotest.(check bool) "unbalanced" true (fails "graph [ id 1");
  Alcotest.(check bool) "stray bracket" true (fails "id 1 ]")

let test_ast_accessors () =
  Alcotest.(check (option int)) "int" (Some 3) (Ast.as_int (Ast.Int 3));
  Alcotest.(check (option int)) "integral float" (Some 3) (Ast.as_int (Ast.Float 3.0));
  Alcotest.(check (option int)) "fractional float" None (Ast.as_int (Ast.Float 3.5));
  Alcotest.(check (option (float 0.0))) "int as float" (Some 3.0) (Ast.as_float (Ast.Int 3));
  Alcotest.(check (option string)) "string" (Some "x") (Ast.as_string (Ast.String "x"));
  Alcotest.(check bool) "list" true (Ast.as_list (Ast.List []) = Some [])

(* --- Printer round trip --- *)

let test_print_parse_round_trip () =
  let doc = Parser.parse sample in
  let doc' = Parser.parse (Printer.to_string doc) in
  Alcotest.(check bool) "round trip equal" true (Ast.equal doc doc')

let ident_gen =
  QCheck.Gen.(
    map
      (fun (c, rest) -> String.make 1 c ^ String.concat "" (List.map (String.make 1) rest))
      (pair (char_range 'a' 'z') (list_size (int_bound 6) (char_range 'a' 'z'))))

let rec value_gen depth =
  QCheck.Gen.(
    if depth = 0 then
      oneof
        [
          map (fun i -> Ast.Int i) (int_range (-1000) 1000);
          map (fun f -> Ast.Float f) (float_range (-1000.0) 1000.0);
          map (fun s -> Ast.String s) ident_gen;
        ]
    else
      frequency
        [
          (3, value_gen 0);
          (1, map (fun pairs -> Ast.List pairs) (doc_gen (depth - 1)));
        ])

and doc_gen depth =
  QCheck.Gen.(list_size (int_bound 5) (pair ident_gen (value_gen depth)))

let arb_doc =
  QCheck.make (doc_gen 2) ~print:(fun doc -> Printer.to_string doc)

let printer_round_trip =
  QCheck.Test.make ~name:"print/parse round trip on random documents" ~count:200
    arb_doc
    (fun doc -> Ast.equal doc (Parser.parse (Printer.to_string doc)))

(* --- Gml_io --- *)

let test_gml_io_round_trip () =
  let doc = Parser.parse sample in
  let net = Rr_topology.Gml_io.of_gml doc in
  Alcotest.(check int) "pops" 2 (Rr_topology.Net.pop_count net);
  Alcotest.(check int) "links" 1 (Rr_topology.Net.link_count net);
  Alcotest.(check string) "city split" "Chicago"
    (Rr_topology.Net.pop net 0).Rr_topology.Pop.city;
  Alcotest.(check string) "state split" "IL"
    (Rr_topology.Net.pop net 0).Rr_topology.Pop.state;
  (* back out and in again *)
  let net' = Rr_topology.Gml_io.of_gml (Rr_topology.Gml_io.to_gml net) in
  Alcotest.(check int) "pops preserved" 2 (Rr_topology.Net.pop_count net');
  Alcotest.(check int) "links preserved" 1 (Rr_topology.Net.link_count net')

let test_gml_io_sparse_ids () =
  (* ids 0 and 5 in the sample: must be reindexed densely *)
  let net = Rr_topology.Gml_io.of_gml (Parser.parse sample) in
  Alcotest.(check int) "dense id 0" 0 (Rr_topology.Net.pop net 0).Rr_topology.Pop.id;
  Alcotest.(check int) "dense id 1" 1 (Rr_topology.Net.pop net 1).Rr_topology.Pop.id

let test_gml_io_missing_fields () =
  let bad = "graph [ node [ id 0 label \"x\" ] ]" in
  Alcotest.(check bool) "fails on missing Latitude" true
    (try
       ignore (Rr_topology.Gml_io.of_gml (Parser.parse bad));
       false
     with Failure _ -> true)

(* A coordinate out of range, or not finite, is a typed [Failure] that
   names the node, the promise of [of_gml]'s interface, and never
   [Coord.make]'s [Invalid_argument]. *)
let test_gml_io_bad_coordinates () =
  let doc lat lon =
    Printf.sprintf
      "graph [ node [ id 7 label \"x\" Latitude %s Longitude %s ] ]" lat lon
  in
  List.iter
    (fun (lat, lon, want) ->
      match Rr_topology.Gml_io.of_gml (Parser.parse (doc lat lon)) with
      | _ -> Alcotest.failf "Latitude %s Longitude %s accepted" lat lon
      | exception Failure msg -> Alcotest.(check string) want want msg
      | exception e ->
        Alcotest.failf "Latitude %s Longitude %s raised %s" lat lon
          (Printexc.to_string e))
    [
      ("95", "-87.6", "Gml_io.of_gml: node 7 has Latitude 95 outside [-90, 90]");
      ( "41.9",
        "-181",
        "Gml_io.of_gml: node 7 has Longitude -181 outside [-180, 180]" );
      ( "1e999",
        "-87.6",
        "Gml_io.of_gml: node 7 has Latitude inf outside [-90, 90]" );
    ]

let test_gml_io_file_round_trip () =
  let net = Rr_topology.Gml_io.of_gml (Parser.parse sample) in
  let path = Filename.temp_file "riskroute" ".gml" in
  Rr_topology.Gml_io.to_file path net;
  let net' = Rr_topology.Gml_io.of_file path in
  Sys.remove path;
  Alcotest.(check int) "file round trip" 2 (Rr_topology.Net.pop_count net')

let () =
  Alcotest.run "rr_gml"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "negative numbers" `Quick test_lexer_negative_numbers;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "escaped string" `Quick test_lexer_escaped_string;
          Alcotest.test_case "unterminated string" `Quick test_lexer_unterminated;
          Alcotest.test_case "exponent" `Quick test_lexer_exponent;
        ] );
      ( "parser",
        [
          Alcotest.test_case "sample document" `Quick test_parse_sample;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "ast accessors" `Quick test_ast_accessors;
        ] );
      ( "printer",
        [
          Alcotest.test_case "round trip" `Quick test_print_parse_round_trip;
          QCheck_alcotest.to_alcotest printer_round_trip;
        ] );
      ( "gml_io",
        [
          Alcotest.test_case "round trip" `Quick test_gml_io_round_trip;
          Alcotest.test_case "sparse ids" `Quick test_gml_io_sparse_ids;
          Alcotest.test_case "missing fields" `Quick test_gml_io_missing_fields;
          Alcotest.test_case "bad coordinates" `Quick test_gml_io_bad_coordinates;
          Alcotest.test_case "file round trip" `Quick test_gml_io_file_round_trip;
        ] );
    ]
