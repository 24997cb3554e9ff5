(* Depth-first labelling over the CSR arrays with an explicit stack.
   A node is labelled when it is pushed, so each node enters the stack
   at most once and [n] slots suffice. *)
let labels ~off ~tgt ~removed =
  let n = Array.length off - 1 in
  if Array.length removed <> n then
    invalid_arg "Component.labels: removed mask length differs from node count";
  let label = Array.make n (-1) in
  let stack = Array.make n 0 in
  let next = ref 0 in
  for start = 0 to n - 1 do
    if label.(start) = -1 && not removed.(start) then begin
      let c = !next in
      incr next;
      label.(start) <- c;
      stack.(0) <- start;
      let top = ref 1 in
      while !top > 0 do
        decr top;
        let u = stack.(!top) in
        for k = off.(u) to off.(u + 1) - 1 do
          let v = tgt.(k) in
          if label.(v) = -1 && not removed.(v) then begin
            label.(v) <- c;
            stack.(!top) <- v;
            incr top
          end
        done
      done
    end
  done;
  label

let components g =
  let off, tgt = Graph.to_csr g in
  labels ~off ~tgt ~removed:(Array.make (Graph.node_count g) false)

let component_count g =
  let label = components g in
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 label

let is_connected g = component_count g <= 1

let largest_component g =
  let label = components g in
  let n = Graph.node_count g in
  if n = 0 then []
  else begin
    let k = Array.fold_left (fun acc c -> max acc (c + 1)) 0 label in
    let sizes = Array.make k 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) label;
    let best = Rr_util.Arrayx.argmax (Array.map float_of_int sizes) in
    List.filter (fun v -> label.(v) = best) (Rr_util.Listx.range 0 n)
  end
