(* Yen's algorithm over a CSR adjacency with a (possibly directed)
   arc-weight function. Removals are expressed by wrapping the weight
   function rather than mutating the graph: a banned arc weighs
   [infinity], which the kernel never relaxes. *)

let yen ~n ~off ~tgt ~weight ~src ~dst ~k =
  if k <= 0 then []
  else
    match Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src ~dst with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let candidates : (float * int list) list ref = ref [] in
      let known path =
        List.exists (fun (_, p) -> p = path) !candidates
        || List.exists (fun (_, p) -> p = path) !accepted
      in
      (try
         for _ = 2 to k do
           let _, prev_path = List.hd !accepted in
           let prev = Array.of_list prev_path in
           for i = 0 to Array.length prev - 2 do
             let spur = prev.(i) in
             let root = Array.to_list (Array.sub prev 0 (i + 1)) in
             let root_cost = Dijkstra.path_cost ~off ~tgt ~weight:(Fn weight) root in
             (* Ban the next hop of every accepted path sharing this root,
                and every root node before the spur: arcs into a banned
                node weigh infinity, so the spur search never settles
                one. *)
             let banned_arcs =
               List.filter_map
                 (fun (_, p) ->
                   let arr = Array.of_list p in
                   if
                     Array.length arr > i + 1
                     && Array.to_list (Array.sub arr 0 (i + 1)) = root
                   then Dijkstra.find_arc ~off ~tgt arr.(i) arr.(i + 1)
                   else None)
                 !accepted
             in
             let banned_nodes = Array.make n false in
             List.iteri (fun j v -> if j < i then banned_nodes.(v) <- true) root;
             let spur_weight a =
               if banned_nodes.(tgt.(a)) || List.mem a banned_arcs then infinity
               else weight a
             in
             match
               Dijkstra.single_pair_flat ~n ~off ~tgt ~weight:spur_weight
                 ~src:spur ~dst
             with
             | None -> ()
             | Some (spur_cost, spur_path) ->
               (* Loopless by construction: the spur path is a tree path
                  and cannot reach a banned root node. *)
               let total_path = root @ List.tl spur_path in
               if not (known total_path) then
                 candidates := (root_cost +. spur_cost, total_path) :: !candidates
           done;
           match List.sort compare !candidates with
           | [] -> raise Exit
           | best :: rest ->
             accepted := best :: !accepted;
             candidates := rest
         done
       with Exit -> ());
      List.rev !accepted
