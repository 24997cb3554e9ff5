let default_rho_tropical = 50.0

let default_rho_hurricane = 100.0

let risk_at ?(rho_tropical = default_rho_tropical)
    ?(rho_hurricane = default_rho_hurricane) (a : Advisory.t) point =
  let d = Rr_geo.Distance.miles a.Advisory.center point in
  if a.Advisory.hurricane_radius_miles > 0.0 && d <= a.Advisory.hurricane_radius_miles
  then rho_hurricane
  else if
    a.Advisory.tropical_radius_miles > 0.0 && d <= a.Advisory.tropical_radius_miles
  then rho_tropical
  else 0.0

let pop_risks ?rho_tropical ?rho_hurricane advisory (net : Rr_topology.Net.t) =
  Array.map
    (fun (p : Rr_topology.Pop.t) ->
      risk_at ?rho_tropical ?rho_hurricane advisory p.Rr_topology.Pop.coord)
    net.Rr_topology.Net.pops

let count_pops advisory net ~pred =
  Array.fold_left
    (fun acc (p : Rr_topology.Pop.t) ->
      if pred (Rr_geo.Distance.miles advisory.Advisory.center p.Rr_topology.Pop.coord)
      then acc + 1
      else acc)
    0 net.Rr_topology.Net.pops

let pops_in_scope (a : Advisory.t) net =
  if a.Advisory.tropical_radius_miles <= 0.0 then 0
  else count_pops a net ~pred:(fun d -> d <= a.Advisory.tropical_radius_miles)

let pops_in_hurricane_scope (a : Advisory.t) net =
  if a.Advisory.hurricane_radius_miles <= 0.0 then 0
  else count_pops a net ~pred:(fun d -> d <= a.Advisory.hurricane_radius_miles)

let scope_fraction advisories (net : Rr_topology.Net.t) =
  let n = Rr_topology.Net.pop_count net in
  if n = 0 then 0.0
  else begin
    let hit = Array.make n false in
    List.iter
      (fun (a : Advisory.t) ->
        if a.Advisory.tropical_radius_miles > 0.0 then
          Array.iteri
            (fun i (p : Rr_topology.Pop.t) ->
              if
                Rr_geo.Distance.miles a.Advisory.center p.Rr_topology.Pop.coord
                <= a.Advisory.tropical_radius_miles
              then hit.(i) <- true)
            net.Rr_topology.Net.pops)
      advisories;
    let hits = Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 hit in
    float_of_int hits /. float_of_int n
  end

type delta = {
  indices : int array;
  values : float array;
  bbox : Rr_geo.Bbox.t option;
}

let empty_delta = { indices = [||]; values = [||]; bbox = None }

let c_diff_evaluated = Rr_obs.Counter.make "forecast.diff_evaluated"

(* The window around the advisory's whole wind disk: the disk of its
   largest positive radius. An advisory without a positive radius has
   no disk ([risk_at] is 0 everywhere), so its window is empty. *)
let window (a : Advisory.t) =
  let positive r = if r > 0.0 then r else 0.0 in
  Rr_geo.Distance.disk_window ~center:a.Advisory.center
    ~radius_miles:
      (Float.max
         (positive a.Advisory.hurricane_radius_miles)
         (positive a.Advisory.tropical_radius_miles))

(* A changed entry is a bitwise difference: the engine's caches key on
   IEEE-754 bit patterns, so "changed" must mean exactly what would
   invalidate them — numeric comparison would miss -0.0 vs 0.0 and any
   future non-step field model could produce ulp-level moves.

   Only two kinds of point can change: those the old field holds as
   anything but +0.0, and those inside the new disk. Every other point
   is +0.0 on both sides, since [risk_at] returns the literal 0.0
   outside the disk, so it is skipped after two compares and the delta
   equals a full scan's. *)
let diff_field ?rho_tropical ?rho_hurricane ~old_field ~next coords =
  Rr_obs.with_span "forecast.diff_field" @@ fun () ->
  let n = Array.length coords in
  if Array.length old_field <> n then
    invalid_arg "Riskfield.diff_field: field/coords length mismatch";
  let w = Option.map window next in
  let idx = ref [] and vals = ref [] and pts = ref [] and count = ref 0 in
  let evaluated = ref 0 in
  for i = n - 1 downto 0 do
    let old = old_field.(i) and p = coords.(i) in
    if
      Int64.bits_of_float old <> 0L
      || match w with Some w -> Rr_geo.Distance.in_disk_window w p | None -> false
    then begin
      incr evaluated;
      let v =
        match next with
        | None -> 0.0
        | Some a -> risk_at ?rho_tropical ?rho_hurricane a p
      in
      if Int64.bits_of_float v <> Int64.bits_of_float old then begin
        idx := i :: !idx;
        vals := v :: !vals;
        pts := p :: !pts;
        incr count
      end
    end
  done;
  Rr_obs.Counter.add c_diff_evaluated !evaluated;
  if !count = 0 then empty_delta
  else
    {
      indices = Array.of_list !idx;
      values = Array.of_list !vals;
      bbox = Some (Rr_geo.Bbox.of_coords !pts);
    }

let diff ?rho_tropical ?rho_hurricane ~prev ~next coords =
  let old_field =
    match prev with
    | None -> Array.make (Array.length coords) 0.0
    | Some a ->
      Array.map (fun c -> risk_at ?rho_tropical ?rho_hurricane a c) coords
  in
  diff_field ?rho_tropical ?rho_hurricane ~old_field ~next coords

let union_scope advisories point =
  List.fold_left
    (fun acc advisory -> Float.max acc (risk_at advisory point))
    0.0 advisories
