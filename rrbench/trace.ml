(* Spans of the traced run, recorded with the program's own span
   recorder (Rr_obs), which the traced phase switches on.

   The benchmark records a span around each of its calls into a layer's
   public functions; the program adds no spans for this. A layer that is
   only reachable inside another layer's call is measured by a "shadow"
   span: right after the op, the benchmark re-runs the inner public call
   on the same inputs under the enclosing call's span, with a name that
   marks it as a shadow. The op a span belongs to is its root ancestor,
   the workload's ".op" span. Spans stay in memory and are written once,
   at exit, as Chrome trace-event JSON (Rr_obs.write_trace). *)

let shadow_prefix = "shadow:"

(* Names of the spans this benchmark records, as opposed to the spans
   the program records inside its own calls. *)
let ours : (string, unit) Hashtbl.t = Hashtbl.create 32

(* A call into a layer, under the innermost open span. *)
let span name f =
  if Rr_obs.enabled () then Hashtbl.replace ours name ();
  Rr_obs.with_span name f

(* [span], also returning the span's id for later shadows (0 when
   tracing is off). *)
let call name f =
  span name (fun () ->
      let id = Rr_obs.Span.current () in
      (f (), id))

(* Re-run an inner call after the op, as a child of span [of_]. *)
let shadow ~of_ name f =
  Rr_obs.Span.with_parent of_ (fun () -> span (shadow_prefix ^ name) f)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let is_shadow s = String.starts_with ~prefix:shadow_prefix s.name

(* The benchmark's own spans recorded so far, in id order. *)
let recorded () =
  List.filter_map
    (fun (s : Rr_obs.span) ->
      if Hashtbl.mem ours s.sp_name then
        Some
          {
            id = s.sp_id;
            parent = s.sp_parent;
            name = s.sp_name;
            t0 = s.sp_start;
            t1 = s.sp_start +. s.sp_dur;
          }
      else None)
    (Rr_obs.spans ())

(* Self time of every span: its duration minus the time its children
   cover. Ordinary children ran inside the parent, so they cover the
   union of their intervals clipped to the parent's; a shadow child
   re-ran part of the parent's work after it ended, so it covers its own
   duration. Clamped at zero. *)
let self_times (spans : span list) =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      let shadowed =
        List.fold_left
          (fun acc c -> if is_shadow c then acc +. (c.t1 -. c.t0) else acc)
          0.0 kids
      in
      let inside =
        List.filter_map
          (fun c ->
            if is_shadow c then None
            else
              let a = Float.max c.t0 s.t0 and b = Float.min c.t1 s.t1 in
              if b > a then Some (a, b) else None)
          kids
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) inside
      in
      Hashtbl.replace self s.id
        (Float.max 0.0 (s.t1 -. s.t0 -. covered -. shadowed)))
    spans;
  self

(* Per span name: (total duration, total self time), seconds. *)
let totals (spans : span list) =
  let self = self_times spans in
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d, st = Option.value (Hashtbl.find_opt acc s.name) ~default:(0.0, 0.0) in
      Hashtbl.replace acc s.name
        (d +. (s.t1 -. s.t0), st +. Hashtbl.find self s.id))
    spans;
  acc
