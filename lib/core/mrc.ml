type t = {
  env : Env.t;
  group : int array;  (* -1 = uncovered *)
  k : int;
}

(* Is the graph still connected after removing [removed]? *)
let connected_without graph removed =
  let n = Rr_graph.Graph.node_count graph in
  let keep = Array.make n true in
  List.iter (fun v -> keep.(v) <- false) removed;
  let survivors = List.filter (fun v -> keep.(v)) (Rr_util.Listx.range 0 n) in
  match survivors with
  | [] -> true
  | start :: _ ->
    let visited = Array.make n false in
    let stack = Stack.create () in
    Stack.push start stack;
    visited.(start) <- true;
    let count = ref 1 in
    while not (Stack.is_empty stack) do
      let u = Stack.pop stack in
      Rr_graph.Graph.iter_neighbors graph u (fun v ->
          if keep.(v) && not visited.(v) then begin
            visited.(v) <- true;
            incr count;
            Stack.push v stack
          end)
    done;
    !count = List.length survivors

let build ?(k = 4) env =
  if k < 1 then invalid_arg "Mrc.build: k < 1";
  let graph = Env.graph env in
  let n = Env.node_count env in
  let group = Array.make n (-1) in
  let members = Array.make k [] in
  (* Greedy: place each node in the first configuration whose isolation
     set, extended with it, still leaves the survivors connected. Spread
     attempts round-robin so groups stay balanced. *)
  for v = 0 to n - 1 do
    let rec try_groups attempt =
      if attempt >= k then ()
      else begin
        let c = (v + attempt) mod k in
        if connected_without graph (v :: members.(c)) then begin
          group.(v) <- c;
          members.(c) <- v :: members.(c)
        end
        else try_groups (attempt + 1)
      end
    in
    try_groups 0
  done;
  { env; group; k }

let config_count t = t.k

let config_of_node t v =
  if v < 0 || v >= Array.length t.group then invalid_arg "Mrc.config_of_node";
  if t.group.(v) = -1 then None else Some t.group.(v)

let coverage t =
  let covered = Array.fold_left (fun acc g -> if g >= 0 then acc + 1 else acc) 0 t.group in
  float_of_int covered /. float_of_int (max 1 (Array.length t.group))

let route t ~config ~src ~dst =
  if config < 0 || config >= t.k then invalid_arg "Mrc.route: bad configuration";
  let kappa = Env.kappa t.env src dst in
  let tgt = Env.arc_tgt t.env in
  let miles = Env.arc_miles t.env and risk = Env.arc_risk t.env in
  let weight k =
    (* no transit through isolated nodes: an isolated node may appear
       only as an endpoint of the whole path, so arcs into any other
       weigh infinity *)
    let v = tgt.(k) in
    if t.group.(v) = config && v <> src && v <> dst then infinity
    else miles.(k) +. (kappa *. risk.(k))
  in
  Option.map
    (fun (_, path) -> Router.route_of_path t.env path)
    (Rr_graph.Query.run (Env.query t.env) ~weight ~src ~dst)

let recovery_route t ~failed ~src ~dst =
  if failed = src || failed = dst then None
  else
    match config_of_node t failed with
    | None -> None
    | Some config -> (
      match route t ~config ~src ~dst with
      | Some r when not (List.mem failed r.Router.path) -> Some r
      | Some _ | None -> None)
