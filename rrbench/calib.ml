(* Machine-speed calibration.

   The shared VM the benchmark runs on changes speed by 20-40% over
   seconds to minutes as other tenants load the host, and every wall
   time moves with it. So the benchmark also times a fixed kernel of its
   own in slices between the ops of its timed phase, and reports every
   time at a reference speed: a wall time t is reported as
   t * reference_s / (mean slice time of the run). A sample runs a slice
   on two domains at once, one per vCPU, because the program's set-up
   and plans use both. The kernel is the program's three kinds
   of work in about equal parts — graph search (Dijkstra over a random
   graph), floating point (a kernel density sum with exp and sqrt) and
   hashing (string-keyed table lookups) — but is code of its own that
   belongs to no RiskRoute library, so no change to the program can make
   it faster or slower. It allocates nothing after its first use, so the
   program's heap and GC work do not change its speed either. *)

let nodes = 20_000
let degree = 6

(* Work per slice. *)
let searches = 1
let density_queries = 225
let lookup_rounds = 20

(* Mean slice time on the 2-vCPU VM the bounds were set on, at its usual
   speed: the reference every time is scaled to. *)
let reference_s = 0.0225

(* The kernel's inputs, read-only and shared by every domain. *)
type kernel = {
  tgt : int array;  (** [degree] arc targets per node *)
  w : float array;  (** arc weights *)
  px : float array;  (** density sample points *)
  py : float array;
  keys : (string * string) array;  (** (city, state)-like keys *)
  table : (string * string, int) Hashtbl.t;  (** every other key *)
}

let kernel =
  lazy
    (let rng = Random.State.make [| 0xca1b |] in
     let arcs = nodes * degree and points = 2000 and key_count = 5000 in
     let states = [| "TX"; "FL"; "LA"; "NY"; "CA"; "GA"; "NC" |] in
     let keys =
       Array.init key_count (fun i ->
           ( Printf.sprintf "City %d of %d" (i * 7919 mod 100_003) i,
             states.(i mod Array.length states) ))
     in
     let table = Hashtbl.create key_count in
     Array.iteri (fun i k -> if i mod 2 = 0 then Hashtbl.replace table k i) keys;
     {
       tgt = Array.init arcs (fun _ -> Random.State.int rng nodes);
       w = Array.init arcs (fun _ -> 0.1 +. Random.State.float rng 1.0);
       px = Array.init points (fun _ -> Random.State.float rng 1.0);
       py = Array.init points (fun _ -> Random.State.float rng 1.0);
       keys;
       table;
     })

(* One domain's working arrays. *)
type scratch = {
  dist : float array;
  heap_k : float array;  (** binary min-heap of (key, node), lazy deletion *)
  heap_v : int array;
}

let scratch () =
  let arcs = nodes * degree in
  {
    dist = Array.make nodes infinity;
    heap_k = Array.make (arcs + 1) 0.0;
    heap_v = Array.make (arcs + 1) 0;
  }

(* Settled-distance checksum of one single-source run. *)
let dijkstra k sc src =
  let hk = sc.heap_k and hv = sc.heap_v and dist = sc.dist in
  Array.fill dist 0 nodes infinity;
  let size = ref 0 in
  let push key v =
    let i = ref !size in
    incr size;
    while !i > 0 && hk.((!i - 1) / 2) > key do
      let p = (!i - 1) / 2 in
      hk.(!i) <- hk.(p);
      hv.(!i) <- hv.(p);
      i := p
    done;
    hk.(!i) <- key;
    hv.(!i) <- v
  in
  (* Removes the minimum; the caller has read it from slot 0. *)
  let pop () =
    decr size;
    let lk = hk.(!size) and lv = hv.(!size) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !size then fin := true
      else begin
        let c = if l + 1 < !size && hk.(l + 1) < hk.(l) then l + 1 else l in
        if hk.(c) < lk then begin
          hk.(!i) <- hk.(c);
          hv.(!i) <- hv.(c);
          i := c
        end
        else fin := true
      end
    done;
    hk.(!i) <- lk;
    hv.(!i) <- lv
  in
  dist.(src) <- 0.0;
  push 0.0 src;
  let sum = ref 0.0 in
  while !size > 0 do
    let d = hk.(0) and u = hv.(0) in
    pop ();
    if d <= dist.(u) then begin
      sum := !sum +. d;
      for e = u * degree to (u * degree) + degree - 1 do
        let v = k.tgt.(e) in
        let nd = d +. k.w.(e) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          push nd v
        end
      done
    end
  done;
  !sum

(* Kernel density at (qx, qy) over the sample points. *)
let density k qx qy =
  let acc = ref 0.0 in
  for i = 0 to Array.length k.px - 1 do
    let dx = k.px.(i) -. qx and dy = k.py.(i) -. qy in
    acc := !acc +. exp (-8.0 *. sqrt ((dx *. dx) +. (dy *. dy)))
  done;
  !acc

(* Keys found in the table, looking every key up once. *)
let lookups k =
  Array.fold_left
    (fun hits key -> if Hashtbl.mem k.table key then hits + 1 else hits)
    0 k.keys

(* One slice of the kernel on the calling domain; its wall time. *)
let slice k sc =
  let t0 = Unix.gettimeofday () in
  let s = ref 0.0 in
  for i = 1 to searches do
    s := !s +. dijkstra k sc (i * 7919 mod nodes)
  done;
  let f = float_of_int density_queries in
  for q = 0 to density_queries - 1 do
    s := !s +. density k (float_of_int q /. f) (float_of_int (q * 37 mod density_queries) /. f)
  done;
  for _ = 1 to lookup_rounds do
    s := !s +. float_of_int (lookups k)
  done;
  ignore (Sys.opaque_identity !s);
  Unix.gettimeofday () -. t0

let scratches = lazy (scratch (), scratch ())
let slice_log = ref []

(* Run one slice on the calling domain and, at the same time, one on a
   domain of its own, so both vCPUs are measured — the program's set-up
   and plans run on both — and record both times. Returns the wall time
   the call took, kernel construction included, so callers can leave it
   out of what they measure. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  let k = Lazy.force kernel in
  let here, there = Lazy.force scratches in
  let other = Domain.spawn (fun () -> slice k there) in
  let mine = slice k here in
  let theirs = Domain.join other in
  slice_log := theirs :: mine :: !slice_log;
  Unix.gettimeofday () -. t0

(* Slice times recorded so far, oldest first. *)
let slices () = List.rev !slice_log

(* How much slower than the reference the machine ran: the mean slice
   time over [reference_s]. Wall times are divided by it. A mean, not a
   median, because an op's wall time grows with the share of it spent on
   a slow stretch, and so does the mean slice time. *)
let slowdown xs =
  match xs with
  | [] -> invalid_arg "Calib.slowdown: no slices"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) /. reference_s

(* A value of unit [unit_] at the reference speed: times are divided by
   the slowdown, rates multiplied by it, anything else is unchanged. *)
let at_reference ~slowdown ~unit_ v =
  match unit_ with
  | "s" | "ms" | "us" -> v /. slowdown
  | "1/s" -> v *. slowdown
  | _ -> v
