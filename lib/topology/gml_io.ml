open Rr_gml

let to_gml (net : Net.t) =
  let nodes =
    Array.to_list net.Net.pops
    |> List.map (fun (p : Pop.t) ->
           ( "node",
             Ast.List
               [
                 ("id", Ast.Int p.Pop.id);
                 ("label", Ast.String p.Pop.name);
                 ("Latitude", Ast.Float (Rr_geo.Coord.lat p.Pop.coord));
                 ("Longitude", Ast.Float (Rr_geo.Coord.lon p.Pop.coord));
               ] ))
  in
  let edges =
    Rr_graph.Graph.edges net.Net.graph
    |> List.map (fun (u, v) ->
           ("edge", Ast.List [ ("source", Ast.Int u); ("target", Ast.Int v) ]))
  in
  [
    ( "graph",
      Ast.List
        ( [
            ("label", Ast.String net.Net.name);
            ("directed", Ast.Int 0);
            ( "tier",
              Ast.String
                (match net.Net.tier with Net.Tier1 -> "tier1" | Net.Regional -> "regional") );
          ]
        @ nodes @ edges ) );
  ]

let fail fmt = Printf.ksprintf failwith fmt

let of_gml doc =
  let graph_pairs =
    match Ast.find doc "graph" with
    | Some (Ast.List pairs) -> pairs
    | Some _ -> fail "Gml_io.of_gml: 'graph' is not a list"
    | None -> fail "Gml_io.of_gml: no 'graph' entry"
  in
  let name =
    match Ast.find graph_pairs "label" with
    | Some (Ast.String s) -> s
    | _ -> "unnamed"
  in
  let tier =
    match Ast.find graph_pairs "tier" with
    | Some (Ast.String "regional") -> Net.Regional
    | _ -> Net.Tier1
  in
  let node_lists =
    Ast.find_all graph_pairs "node"
    |> List.map (fun v ->
           match Ast.as_list v with
           | Some l -> l
           | None -> fail "Gml_io.of_gml: 'node' is not a list")
  in
  let raw_nodes =
    List.map
      (fun node ->
        let get key =
          match Ast.find node key with
          | Some v -> v
          | None -> fail "Gml_io.of_gml: node missing %S" key
        in
        let id =
          match Ast.as_int (get "id") with
          | Some i -> i
          | None -> fail "Gml_io.of_gml: node id is not an integer"
        in
        let label =
          match Ast.find node "label" with
          | Some (Ast.String s) -> s
          | _ -> Printf.sprintf "node-%d" id
        in
        (* Checked here so that an out-of-range or non-finite value is
           a [Failure] naming the node, not [Coord.make]'s
           [Invalid_argument]. *)
        let coord_part key ~limit =
          match Ast.as_float (get key) with
          | Some f when Float.is_finite f && Float.abs f <= limit -> f
          | Some f ->
            fail "Gml_io.of_gml: node %d has %s %g outside [-%g, %g]" id key f
              limit limit
          | None -> fail "Gml_io.of_gml: node %d has non-numeric %s" id key
        in
        ( id,
          label,
          coord_part "Latitude" ~limit:90.0,
          coord_part "Longitude" ~limit:180.0 ))
      node_lists
  in
  (* Re-index sparse ids densely, preserving document order. *)
  let index = Hashtbl.create (List.length raw_nodes) in
  List.iteri
    (fun dense (id, _, _, _) ->
      if Hashtbl.mem index id then fail "Gml_io.of_gml: duplicate node id %d" id;
      Hashtbl.add index id dense)
    raw_nodes;
  let pops =
    Array.of_list
      (List.mapi
         (fun dense (_, label, lat, lon) ->
           (* Zoo labels are free-form; split a trailing ", ST" when present. *)
           let city, state =
             match String.rindex_opt label ',' with
             | Some i when String.length label - i = 4 ->
               (String.sub label 0 i, String.sub label (i + 2) 2)
             | Some _ | None -> (label, "")
           in
           Pop.make ~id:dense ~city ~state (Rr_geo.Coord.make ~lat ~lon))
         raw_nodes)
  in
  let graph = Rr_graph.Graph.create (Array.length pops) in
  Ast.find_all graph_pairs "edge"
  |> List.iter (fun v ->
         let edge =
           match Ast.as_list v with
           | Some l -> l
           | None -> fail "Gml_io.of_gml: 'edge' is not a list"
         in
         let endpoint key =
           match Ast.find edge key with
           | Some v -> (
             match Ast.as_int v with
             | Some raw -> (
               match Hashtbl.find_opt index raw with
               | Some dense -> dense
               | None -> fail "Gml_io.of_gml: edge references unknown node %d" raw)
             | None -> fail "Gml_io.of_gml: edge %s is not an integer" key)
           | None -> fail "Gml_io.of_gml: edge missing %S" key
         in
         let u = endpoint "source" and v' = endpoint "target" in
         if u <> v' then Rr_graph.Graph.add_edge graph u v');
  Net.make ~name ~tier pops graph

let to_file path net = Printer.to_file path (to_gml net)

let of_file path = of_gml (Parser.parse_file path)
