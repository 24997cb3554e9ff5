(* Rr_obs — zero-dependency observability for the RiskRoute engine.

   Design contract (see DESIGN.md "Telemetry architecture"):

   - Disabled mode is near-free: every recording entry point is a single
     branch on one global flag and allocates nothing. Hot kernels are
     expected to tally into local ints and flush once per call.
   - Counters and histograms are *sharded per domain*: each domain that
     records gets a private shard (created on first use via DLS and
     registered under the metric's mutex), so pool workers never contend.
     Draining merges shards with order-independent operations (int sums,
     bucket sums, min/max), so merged counters are deterministic at any
     pool size; only the float [sum] of a histogram depends on shard
     order.
   - Spans form a tree: a DLS-held "current span" id is the parent of
     any span opened on that domain, and [Span.current]/[Span.with_parent]
     let the domain pool carry the submitting span across the queue.
   - A registry owns the metric namespace and the span buffer; the
     [default] registry backs the process-wide dump, private registries
     back golden tests. Exposition (JSON / Prometheus text) sorts every
     section, so output is reproducible given deterministic inputs. *)

(* --- enable flag --- *)

let flag = Atomic.make false

let enabled () = Atomic.get flag

let set_enabled b = Atomic.set flag b

(* --- clock --- *)

module Clock = struct
  (* Wall time (not CPU time: multicore runs must report elapsed time).
     [monotonic] additionally never goes backwards, which keeps span
     durations non-negative across gettimeofday adjustments. The source
     is swappable so exposition tests can run against a fixed clock. *)
  let default_source = Unix.gettimeofday

  let source = Atomic.make default_source

  let last = Atomic.make neg_infinity

  let now () = (Atomic.get source) ()

  let rec monotonic () =
    let t = now () in
    let prev = Atomic.get last in
    if t >= prev then
      if Atomic.compare_and_set last prev t then t else monotonic ()
    else prev

  let set_source f =
    Atomic.set last neg_infinity;
    Atomic.set source f

  let reset_source () = set_source default_source
end

(* Process epoch: flight-recorder events and structured log records are
   stamped relative to module load, like registry spans. *)
let process_epoch = Clock.now ()

(* The canonical RISKROUTE_* environment-variable table; the init block
   below and every other library read knobs through it. *)
module Envvar = Envvar

(* The running binary's git revision, read straight off .git so the
   library stays dependency- and subprocess-free; "unknown" outside a
   checkout. Memoised: the revision cannot change under a running
   process, and /healthz polls it. *)
let git_rev_memo =
  lazy
    (let read_line path =
       let ic = open_in path in
       Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
     in
     try
       let head = String.trim (read_line ".git/HEAD") in
       let prefix = "ref: " in
       if
         String.length head > String.length prefix
         && String.sub head 0 (String.length prefix) = prefix
       then begin
         let r = String.sub head 5 (String.length head - 5) in
         try String.trim (read_line (Filename.concat ".git" r))
         with _ ->
           (* Ref not unpacked: scan .git/packed-refs for it. *)
           let ic = open_in ".git/packed-refs" in
           Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
               let rev = ref "unknown" in
               (try
                  while true do
                    let line = input_line ic in
                    match String.index_opt line ' ' with
                    | Some i
                      when String.sub line (i + 1) (String.length line - i - 1)
                           = r ->
                      rev := String.sub line 0 i;
                      raise Exit
                    | _ -> ()
                  done
                with End_of_file | Exit -> ());
               !rev)
       end
       else head
     with _ -> "unknown")

let git_rev () = Lazy.force git_rev_memo

(* Schema versions of the JSON artifacts this build can emit, so a live
   instance is identifiable from /healthz alone. Pre-seeded with the
   dumps this library owns (the versions mirror the literals in the
   respective writers); binaries register the artifacts they own
   (bench statistics, explain records, ...) at startup. *)
module Schema = struct
  let lock = Mutex.create ()

  let table = ref [ ("flight", 1); ("series", 1); ("telemetry", 1) ]

  let register name version =
    Mutex.protect lock (fun () ->
        table := (name, version) :: List.remove_assoc name !table)

  let all () = Mutex.protect lock (fun () -> List.sort compare !table)
end

(* --- histogram buckets ---

   Fixed powers-of-two boundaries: bucket [i] covers (2^(i-21), 2^(i-20)]
   for i in 0..40 (values <= 2^-20 land in bucket 0), bucket 41 is the
   +Inf overflow. Fixed boundaries make shard merging a plain int-array
   sum. *)

let bucket_count = 42

let bucket_bound i = ldexp 1.0 (i - 20)

let bucket_index v =
  if v <= bucket_bound 0 then 0
  else begin
    let m, e = Float.frexp v in
    let e = if m = 0.5 then e - 1 else e in
    let i = e + 20 in
    if i < 0 then 0 else if i > bucket_count - 1 then bucket_count - 1 else i
  end

(* --- metric and registry types --- *)

type counter = {
  c_lock : Mutex.t;
  c_shards : int ref list ref;
  c_key : int ref Domain.DLS.key;
}

type gauge = { g_cell : int Atomic.t }

type hshard = {
  mutable hs_count : int;
  mutable hs_sum : float;
  mutable hs_min : float;
  mutable hs_max : float;
  hs_buckets : int array;
}

type histogram = {
  h_lock : Mutex.t;
  h_shards : hshard list ref;
  h_key : hshard Domain.DLS.key;
}

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : float; (* seconds since registry creation *)
  sp_dur : float;
  sp_domain : int; (* id of the domain that executed the span *)
}

type sshard = { mutable ss_spans : span list }

type registry = {
  r_lock : Mutex.t;
  r_counters : (string, counter) Hashtbl.t;
  r_gauges : (string, gauge) Hashtbl.t;
  r_histograms : (string, histogram) Hashtbl.t;
  r_meta : (string, string) Hashtbl.t;
  r_span_shards : sshard list ref;
  r_span_key : sshard Domain.DLS.key;
  r_next_span : int Atomic.t;
  r_created : float;
}

module Registry = struct
  type t = registry

  let create () =
    let lock = Mutex.create () in
    let span_shards = ref [] in
    let span_key =
      Domain.DLS.new_key (fun () ->
          let s = { ss_spans = [] } in
          Mutex.lock lock;
          span_shards := s :: !span_shards;
          Mutex.unlock lock;
          s)
    in
    {
      r_lock = lock;
      r_counters = Hashtbl.create 32;
      r_gauges = Hashtbl.create 8;
      r_histograms = Hashtbl.create 16;
      r_meta = Hashtbl.create 8;
      r_span_shards = span_shards;
      r_span_key = span_key;
      r_next_span = Atomic.make 1;
      r_created = Clock.now ();
    }

  let default = create ()
end

(* --- counters --- *)

module Counter = struct
  type t = counter

  (* Get-or-create: a metric name is a single process-wide series, so
     independent modules (and tests) naming the same counter share it. *)
  let make ?(registry = Registry.default) name =
    Mutex.lock registry.r_lock;
    let t =
      match Hashtbl.find_opt registry.r_counters name with
      | Some c -> c
      | None ->
        let lock = Mutex.create () in
        let shards = ref [] in
        let key =
          Domain.DLS.new_key (fun () ->
              let r = ref 0 in
              Mutex.lock lock;
              shards := r :: !shards;
              Mutex.unlock lock;
              r)
        in
        let c = { c_lock = lock; c_shards = shards; c_key = key } in
        Hashtbl.add registry.r_counters name c;
        c
    in
    Mutex.unlock registry.r_lock;
    t

  let add t n =
    if enabled () then begin
      let s = Domain.DLS.get t.c_key in
      s := !s + n
    end

  let incr t = add t 1

  let value t =
    Mutex.lock t.c_lock;
    let v = List.fold_left (fun acc r -> acc + !r) 0 !(t.c_shards) in
    Mutex.unlock t.c_lock;
    v

  let reset t =
    Mutex.lock t.c_lock;
    List.iter (fun r -> r := 0) !(t.c_shards);
    Mutex.unlock t.c_lock
end

(* --- gauges --- *)

module Gauge = struct
  type t = gauge

  let make ?(registry = Registry.default) name =
    Mutex.lock registry.r_lock;
    let t =
      match Hashtbl.find_opt registry.r_gauges name with
      | Some g -> g
      | None ->
        let g = { g_cell = Atomic.make 0 } in
        Hashtbl.add registry.r_gauges name g;
        g
    in
    Mutex.unlock registry.r_lock;
    t

  let set t v = if enabled () then Atomic.set t.g_cell v

  let value t = Atomic.get t.g_cell
end

(* --- histograms --- *)

module Histogram = struct
  type t = histogram

  type snapshot = {
    count : int;
    sum : float;
    vmin : float;
    vmax : float;
    buckets : int array;
  }

  let make ?(registry = Registry.default) name =
    Mutex.lock registry.r_lock;
    let t =
      match Hashtbl.find_opt registry.r_histograms name with
      | Some h -> h
      | None ->
        let lock = Mutex.create () in
        let shards = ref [] in
        let key =
          Domain.DLS.new_key (fun () ->
              let s =
                {
                  hs_count = 0;
                  hs_sum = 0.0;
                  hs_min = infinity;
                  hs_max = neg_infinity;
                  hs_buckets = Array.make bucket_count 0;
                }
              in
              Mutex.lock lock;
              shards := s :: !shards;
              Mutex.unlock lock;
              s)
        in
        let h = { h_lock = lock; h_shards = shards; h_key = key } in
        Hashtbl.add registry.r_histograms name h;
        h
    in
    Mutex.unlock registry.r_lock;
    t

  let observe t v =
    if enabled () then begin
      let s = Domain.DLS.get t.h_key in
      s.hs_count <- s.hs_count + 1;
      s.hs_sum <- s.hs_sum +. v;
      if v < s.hs_min then s.hs_min <- v;
      if v > s.hs_max then s.hs_max <- v;
      let i = bucket_index v in
      s.hs_buckets.(i) <- s.hs_buckets.(i) + 1
    end

  (* Bucket-rank quantile: the upper bound of the bucket holding the
     nearest-rank sample, clamped into [min, max] so single-sample and
     extreme quantiles report an actually-observed value. Depends only
     on count/min/max/buckets, so it is order-independent across shard
     merges (deterministic at any pool size). NaN on an empty
     histogram; exposition clamps that to 0. *)
  let quantile (s : snapshot) q =
    if s.count = 0 then Float.nan
    else begin
      let rank = int_of_float (Float.ceil (q *. float_of_int s.count)) in
      let rank = if rank < 1 then 1 else if rank > s.count then s.count else rank in
      let cum = ref 0 in
      let idx = ref (bucket_count - 1) in
      (try
         Array.iteri
           (fun i n ->
             cum := !cum + n;
             if !cum >= rank then begin
               idx := i;
               raise Exit
             end)
           s.buckets
       with Exit -> ());
      Float.max s.vmin (Float.min s.vmax (bucket_bound !idx))
    end

  let snapshot t =
    Mutex.lock t.h_lock;
    let snap =
      List.fold_left
        (fun acc s ->
          Array.iteri
            (fun i n -> acc.buckets.(i) <- acc.buckets.(i) + n)
            s.hs_buckets;
          {
            acc with
            count = acc.count + s.hs_count;
            sum = acc.sum +. s.hs_sum;
            vmin = Float.min acc.vmin s.hs_min;
            vmax = Float.max acc.vmax s.hs_max;
          })
        {
          count = 0;
          sum = 0.0;
          vmin = infinity;
          vmax = neg_infinity;
          buckets = Array.make bucket_count 0;
        }
        !(t.h_shards)
    in
    Mutex.unlock t.h_lock;
    snap

  let reset t =
    Mutex.lock t.h_lock;
    List.iter
      (fun s ->
        s.hs_count <- 0;
        s.hs_sum <- 0.0;
        s.hs_min <- infinity;
        s.hs_max <- neg_infinity;
        Array.fill s.hs_buckets 0 bucket_count 0)
      !(t.h_shards);
    Mutex.unlock t.h_lock
end

(* --- spans --- *)

(* The current span id of each domain; 0 is the root (no parent). Shared
   across registries: span *identity* is per registry, nesting context is
   per domain. *)
let cur_key = Domain.DLS.new_key (fun () -> 0)

(* --- JSON helpers (shared by exposition, flight recorder and log) --- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 32

(* The common case, a string with nothing to escape, is one blit. *)
let json_escape b s =
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

(* JSON has no Infinity/NaN; non-finite values (empty histogram min/max)
   are clamped to 0. Integral floats keep a trailing ".0" so the field
   stays a float in typed consumers. *)
let fnum v =
  if not (Float.is_finite v) then "0.0"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

(* --- domain labels (trace tracks) --- *)

(* Human-readable names for trace tracks: the pool registers its workers,
   the initial domain is labelled at module load. Unlabelled domains fall
   back to "domain-<id>" in the trace. Process-global, not per registry:
   a domain's identity does not depend on which registry recorded it. *)
let label_lock = Mutex.create ()

let domain_labels : (int, string) Hashtbl.t = Hashtbl.create 8

let set_domain_label name =
  Mutex.lock label_lock;
  Hashtbl.replace domain_labels (Domain.self () :> int) name;
  Mutex.unlock label_lock

let domain_label id =
  Mutex.lock label_lock;
  let l = Hashtbl.find_opt domain_labels id in
  Mutex.unlock label_lock;
  match l with Some l -> l | None -> Printf.sprintf "domain-%d" id

let () = set_domain_label "main"

(* --- open-span tracking (the live watchdog's view) ---

   [with_span] additionally maintains a per-domain stack of the spans
   that are currently *open*, so a live introspection endpoint can ask
   "is anything stuck?" while the process runs. Writers are single-domain
   and lock-free; [open_spans] reads racily but defensively (stale
   entries are bounded by the depth it observed), which is fine for a
   watchdog. Only maintained while recording is enabled. *)

type oshard = {
  os_domain : int;
  mutable os_ids : int array;
  mutable os_names : string array;
  mutable os_starts : float array; (* absolute Clock.monotonic seconds *)
  mutable os_depth : int;
}

let open_shards_lock = Mutex.create ()

let open_shards : oshard list ref = ref []

let open_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          os_domain = (Domain.self () :> int);
          os_ids = Array.make 8 0;
          os_names = Array.make 8 "";
          os_starts = Array.make 8 0.0;
          os_depth = 0;
        }
      in
      Mutex.lock open_shards_lock;
      open_shards := s :: !open_shards;
      Mutex.unlock open_shards_lock;
      s)

let open_push ~id ~name ~start =
  let s = Domain.DLS.get open_key in
  let d = s.os_depth in
  if d >= Array.length s.os_ids then begin
    let cap = 2 * Array.length s.os_ids in
    let ids = Array.make cap 0
    and names = Array.make cap ""
    and starts = Array.make cap 0.0 in
    Array.blit s.os_ids 0 ids 0 d;
    Array.blit s.os_names 0 names 0 d;
    Array.blit s.os_starts 0 starts 0 d;
    s.os_ids <- ids;
    s.os_names <- names;
    s.os_starts <- starts
  end;
  s.os_ids.(d) <- id;
  s.os_names.(d) <- name;
  s.os_starts.(d) <- start;
  s.os_depth <- d + 1

let open_pop () =
  let s = Domain.DLS.get open_key in
  if s.os_depth > 0 then s.os_depth <- s.os_depth - 1

type open_span = {
  op_domain : int;
  op_id : int;
  op_name : string;
  op_start : float; (* absolute Clock.monotonic seconds *)
}

let open_spans () =
  Mutex.lock open_shards_lock;
  let shards = !open_shards in
  Mutex.unlock open_shards_lock;
  let collect acc s =
    let ids = s.os_ids and names = s.os_names and starts = s.os_starts in
    let d =
      min s.os_depth (min (Array.length ids) (min (Array.length names) (Array.length starts)))
    in
    let acc = ref acc in
    for i = 0 to d - 1 do
      acc :=
        {
          op_domain = s.os_domain;
          op_id = ids.(i);
          op_name = names.(i);
          op_start = starts.(i);
        }
        :: !acc
    done;
    !acc
  in
  List.sort
    (fun a b -> compare (a.op_start, a.op_id) (b.op_start, b.op_id))
    (List.fold_left collect [] shards)

(* --- flight recorder ---

   An always-on, per-domain sharded ring of the most recent engine
   events (span begin/end, cache evictions, warnings, GC major slices):
   cheap enough to leave running in production, rich enough to explain
   "what was the process doing just before it died". Unlike metrics, it
   records regardless of the [enabled] flag — warnings and GC events
   must survive into post-mortem dumps even when telemetry is off (span
   events still require spans, hence recording, to exist).

   Writers are lock-free (each domain owns its ring; slot stores are
   pointer writes, so racy readers observe whole events); the shard list
   itself is the only locked structure. Every event carries a globally
   unique sequence number from one atomic counter, and [events] sorts by
   it — the merge is order-independent across shards and deterministic
   at any pool size. *)

module Flight = struct
  type event = {
    ev_seq : int;
    ev_time : float; (* seconds since process_epoch *)
    ev_domain : int;
    ev_kind : string;
    ev_name : string;
    ev_span : int;
    ev_detail : string;
    ev_dur : float;
        (* a span end's duration in seconds, [nan] on other events: its
           [dur=...] detail is formatted only when the ring is dumped *)
  }

  let null_event =
    {
      ev_seq = 0;
      ev_time = 0.0;
      ev_domain = 0;
      ev_kind = "";
      ev_name = "";
      ev_span = 0;
      ev_detail = "";
      ev_dur = Float.nan;
    }

  let default_capacity = 512

  (* Per-domain ring slots; existing shards keep their arrays until
     [reset], new shards pick the current value up. *)
  let cap_cell = Atomic.make default_capacity

  let capacity () = Atomic.get cap_cell

  let set_capacity k =
    if k < 0 then invalid_arg "Flight.set_capacity: need k >= 0";
    Atomic.set cap_cell k

  type fshard = {
    fs_domain : int;
    mutable fs_slots : event array;
    mutable fs_count : int; (* events ever recorded into this shard *)
  }

  let shards_lock = Mutex.create ()

  let shards : fshard list ref = ref []

  let shard_key =
    Domain.DLS.new_key (fun () ->
        let s =
          {
            fs_domain = (Domain.self () :> int);
            fs_slots = Array.make (capacity ()) null_event;
            fs_count = 0;
          }
        in
        Mutex.lock shards_lock;
        shards := s :: !shards;
        Mutex.unlock shards_lock;
        s)

  let seq = Atomic.make 1

  let recorded () = Atomic.get seq - 1

  let record ?time ?(name = "") ?span ?(detail = "") ?(dur = Float.nan) ~kind
      () =
    let s = Domain.DLS.get shard_key in
    let slots = s.fs_slots in
    let cap = Array.length slots in
    if cap > 0 then begin
      let t = match time with Some t -> t | None -> Clock.monotonic () in
      let span = match span with Some p -> p | None -> Domain.DLS.get cur_key in
      let ev =
        {
          ev_seq = Atomic.fetch_and_add seq 1;
          ev_time = t -. process_epoch;
          ev_domain = s.fs_domain;
          ev_kind = kind;
          ev_name = name;
          ev_span = span;
          ev_detail = detail;
          ev_dur = dur;
        }
      in
      slots.(s.fs_count mod cap) <- ev;
      s.fs_count <- s.fs_count + 1
    end

  (* Merged view: every retained event exactly once, ordered by sequence
     number — independent of shard enumeration order. *)
  let events () =
    Mutex.lock shards_lock;
    let all = !shards in
    Mutex.unlock shards_lock;
    let collect acc s =
      Array.fold_left
        (fun acc ev -> if ev.ev_seq > 0 then ev :: acc else acc)
        acc s.fs_slots
    in
    List.sort
      (fun a b -> compare a.ev_seq b.ev_seq)
      (List.fold_left collect [] all)

  (* Tests: empty every ring (and apply the current capacity), keep the
     sequence counter monotone so merges stay deterministic. *)
  let reset () =
    Mutex.lock shards_lock;
    List.iter
      (fun s ->
        s.fs_slots <- Array.make (capacity ()) null_event;
        s.fs_count <- 0)
      !shards;
    Mutex.unlock shards_lock

  let detail ev =
    if Float.is_nan ev.ev_dur then ev.ev_detail
    else Printf.sprintf "dur=%.6fs" ev.ev_dur

  let to_json () =
    let evs = events () in
    let b = Buffer.create 4096 in
    let add = Buffer.add_string b in
    add "{\n  \"schema\": 1,\n";
    add (Printf.sprintf "  \"capacity\": %d,\n" (capacity ()));
    add (Printf.sprintf "  \"recorded\": %d,\n" (recorded ()));
    add (Printf.sprintf "  \"retained\": %d,\n" (List.length evs));
    add "  \"events\": [";
    List.iteri
      (fun i ev ->
        add (if i = 0 then "\n" else ",\n");
        add
          (Printf.sprintf
             "    {\"seq\": %d, \"time\": %s, \"domain\": %d, \"label\": \""
             ev.ev_seq (fnum ev.ev_time) ev.ev_domain);
        json_escape b (domain_label ev.ev_domain);
        add "\", \"kind\": \"";
        json_escape b ev.ev_kind;
        add "\", \"name\": \"";
        json_escape b ev.ev_name;
        add (Printf.sprintf "\", \"span\": %d, \"detail\": \"" ev.ev_span);
        json_escape b (detail ev);
        add "\"}")
      evs;
    add (if evs = [] then "]\n}\n" else "\n  ]\n}\n");
    Buffer.contents b

  (* Post-mortem dump target: RISKROUTE_FLIGHT=<path> overrides the
     per-pid temp-dir default. Written on SIGUSR1 and on uncaught
     exceptions (see module init below), and served live on /flight. *)
  let dump_path =
    ref
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "riskroute-flight-%d.json" (Unix.getpid ())))

  let set_dump_path p = dump_path := p

  let write_dump () =
    let path = !dump_path in
    let oc = open_out path in
    output_string oc (to_json ());
    close_out oc;
    path
end

let push_span registry sp =
  let s = Domain.DLS.get registry.r_span_key in
  s.ss_spans <- sp :: s.ss_spans

let with_span ?(registry = Registry.default) name f =
  if not (enabled ()) then f ()
  else begin
    let parent = Domain.DLS.get cur_key in
    let id = Atomic.fetch_and_add registry.r_next_span 1 in
    Domain.DLS.set cur_key id;
    let t0 = Clock.monotonic () in
    open_push ~id ~name ~start:t0;
    Flight.record ~time:t0 ~name ~span:id ~kind:"span_begin" ();
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.monotonic () in
        let dur = t1 -. t0 in
        Flight.record ~time:t1 ~name ~span:id ~dur ~kind:"span_end" ();
        open_pop ();
        Domain.DLS.set cur_key parent;
        push_span registry
          {
            sp_id = id;
            sp_parent = parent;
            sp_name = name;
            sp_start = t0 -. registry.r_created;
            sp_dur = dur;
            sp_domain = (Domain.self () :> int);
          })
      f
  end

module Span = struct
  type ctx = int

  let none = 0

  (* Capture on the submitting domain, replay around each pool task:
     spans opened inside the task then attribute to the submitter. *)
  let current () = if enabled () then Domain.DLS.get cur_key else none

  let with_parent parent f =
    if not (enabled ()) then f ()
    else begin
      let old = Domain.DLS.get cur_key in
      Domain.DLS.set cur_key parent;
      Fun.protect ~finally:(fun () -> Domain.DLS.set cur_key old) f
    end
end

let spans ?(registry = Registry.default) () =
  Mutex.lock registry.r_lock;
  let all =
    List.concat_map (fun s -> s.ss_spans) !(registry.r_span_shards)
  in
  Mutex.unlock registry.r_lock;
  List.sort (fun a b -> compare a.sp_id b.sp_id) all

(* --- structured logging ---

   [Log] replaces the ad-hoc [Printf.eprintf] warnings scattered through
   the repo. Unconfigured (no RISKROUTE_LOG, no [set_level]), a warn- or
   error-level record renders to stderr as the plain one-line message it
   always was — byte-compatible with the eprintf it replaced — and
   debug/info records are dropped. Configured to a level, records at or
   above it render as JSON lines stamped with a monotonic timestamp, the
   level, the recording domain's label and the current span id, so log
   output correlates with traces and telemetry. Warn/error records
   always feed the flight ring, configured or not. *)

module Log = struct
  type level = Debug | Info | Warn | Error

  let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let level_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" | "warning" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  let configured : level option ref = ref None

  let set_level l = configured := l

  let current_level () = !configured

  (* Tests capture records through a sink instead of scraping stderr. *)
  let sink : (string -> unit) option ref = ref None

  let set_sink f = sink := f

  let out text =
    match !sink with
    | Some f -> f text
    | None ->
      output_string stderr text;
      flush stderr

  let render_json lvl msg =
    let b = Buffer.create (String.length msg + 96) in
    Buffer.add_string b "{\"ts\": ";
    Buffer.add_string b (fnum (Clock.monotonic () -. process_epoch));
    Buffer.add_string b ", \"level\": \"";
    Buffer.add_string b (level_name lvl);
    Buffer.add_string b "\", \"domain\": \"";
    json_escape b (domain_label (Domain.self () :> int));
    Buffer.add_string b "\", \"span\": ";
    Buffer.add_string b (string_of_int (Domain.DLS.get cur_key));
    Buffer.add_string b ", \"msg\": \"";
    json_escape b msg;
    Buffer.add_string b "\"}\n";
    Buffer.contents b

  let emit lvl msg =
    if severity lvl >= severity Warn then
      Flight.record ~kind:(level_name lvl) ~name:"log" ~detail:msg ();
    match !configured with
    | None -> if severity lvl >= severity Warn then out (msg ^ "\n")
    | Some min_level ->
      if severity lvl >= severity min_level then out (render_json lvl msg)

  let logf lvl fmt = Printf.ksprintf (emit lvl) fmt

  let debugf fmt = logf Debug fmt

  let infof fmt = logf Info fmt

  let warnf fmt = logf Warn fmt

  let errorf fmt = logf Error fmt
end

(* --- kernel wrapper: span + GC delta --- *)

(* [with_kernel name f] is [with_span name f] plus a [Gc.quick_stat]
   delta: allocation pressure of every instrumented kernel lands in
   counters ([<name>.gc_minor_words], [<name>.gc_major_words],
   [<name>.gc_minor_collections], [<name>.gc_major_collections]) and the
   post-run heap size in gauge [<name>.gc_heap_words]. In OCaml 5
   [quick_stat] reads the calling domain, so for kernels that fan out
   the delta covers the submitting domain only — still enough to see an
   allocation regression, which shows up on every domain alike. *)
let with_kernel ?registry name f =
  if not (enabled ()) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    (* [quick_stat.minor_words] is only refreshed at minor collections;
       [Gc.minor_words] reads the live allocation pointer, so short
       kernels that never trigger a collection still report their
       allocations. *)
    let mw0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let s1 = Gc.quick_stat () in
        let count suffix v =
          if v > 0 then Counter.add (Counter.make ?registry (name ^ suffix)) v
        in
        count ".gc_minor_words" (int_of_float (Gc.minor_words () -. mw0));
        count ".gc_major_words"
          (int_of_float (s1.Gc.major_words -. s0.Gc.major_words));
        count ".gc_minor_collections"
          (s1.Gc.minor_collections - s0.Gc.minor_collections);
        count ".gc_major_collections"
          (s1.Gc.major_collections - s0.Gc.major_collections);
        Gauge.set (Gauge.make ?registry (name ^ ".gc_heap_words"))
          s1.Gc.heap_words)
      (fun () -> with_span ?registry name f)
  end

(* --- meta --- *)

let set_meta ?(registry = Registry.default) k v =
  Mutex.lock registry.r_lock;
  Hashtbl.replace registry.r_meta k v;
  Mutex.unlock registry.r_lock

(* --- reset (tests): zero every value, keep registrations --- *)

let reset ?(registry = Registry.default) () =
  Mutex.lock registry.r_lock;
  let counters = Hashtbl.fold (fun _ c acc -> c :: acc) registry.r_counters [] in
  let hists = Hashtbl.fold (fun _ h acc -> h :: acc) registry.r_histograms [] in
  Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0) registry.r_gauges;
  List.iter (fun s -> s.ss_spans <- []) !(registry.r_span_shards);
  Atomic.set registry.r_next_span 1;
  Mutex.unlock registry.r_lock;
  List.iter Counter.reset counters;
  List.iter Histogram.reset hists

(* --- exposition --- *)

let sorted_names tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let to_json ?(registry = Registry.default) () =
  let b = Buffer.create 2048 in
  let add = Buffer.add_string b in
  let key name =
    add "\"";
    json_escape b name;
    add "\""
  in
  let section ?(last = false) name body =
    add "  ";
    key name;
    add ": ";
    body ();
    if last then add "\n" else add ",\n"
  in
  let obj names emit =
    if names = [] then add "{}"
    else begin
      add "{\n";
      List.iteri
        (fun i name ->
          add "    ";
          key name;
          add ": ";
          emit name;
          if i < List.length names - 1 then add ",";
          add "\n")
        names;
      add "  }"
    end
  in
  add "{\n  \"schema\": 1,\n";
  Mutex.lock registry.r_lock;
  let meta =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry.r_meta [])
  in
  Mutex.unlock registry.r_lock;
  section "meta" (fun () ->
      obj (List.map fst meta) (fun name ->
          add "\"";
          json_escape b (List.assoc name meta);
          add "\""));
  section "counters" (fun () ->
      obj (sorted_names registry.r_counters) (fun name ->
          add
            (string_of_int
               (Counter.value (Hashtbl.find registry.r_counters name)))));
  section "gauges" (fun () ->
      obj (sorted_names registry.r_gauges) (fun name ->
          add
            (string_of_int
               (Gauge.value (Hashtbl.find registry.r_gauges name)))));
  section "histograms" (fun () ->
      obj (sorted_names registry.r_histograms) (fun name ->
          let s = Histogram.snapshot (Hashtbl.find registry.r_histograms name) in
          add
            (Printf.sprintf
               "{\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \
                \"p50\": %s, \"p90\": %s, \"p99\": %s, \"buckets\": ["
               s.Histogram.count (fnum s.Histogram.sum)
               (fnum s.Histogram.vmin) (fnum s.Histogram.vmax)
               (fnum (Histogram.quantile s 0.50))
               (fnum (Histogram.quantile s 0.90))
               (fnum (Histogram.quantile s 0.99)));
          let first = ref true in
          Array.iteri
            (fun i n ->
              if n > 0 then begin
                if not !first then add ", ";
                first := false;
                add (Printf.sprintf "[%s, %d]" (fnum (bucket_bound i)) n)
              end)
            s.Histogram.buckets;
          add "]}"));
  section ~last:true "spans" (fun () ->
      let sps = spans ~registry () in
      if sps = [] then add "[]"
      else begin
        add "[\n";
        List.iteri
          (fun i sp ->
            add
              (Printf.sprintf
                 "    {\"id\": %d, \"parent\": %d, \"name\": " sp.sp_id
                 sp.sp_parent);
            add "\"";
            json_escape b sp.sp_name;
            add "\"";
            add
              (Printf.sprintf ", \"start\": %s, \"dur\": %s, \"domain\": %d}"
                 (fnum sp.sp_start) (fnum sp.sp_dur) sp.sp_domain);
            if i < List.length sps - 1 then add ",";
            add "\n")
          sps;
        add "  ]"
      end);
  add "}\n";
  Buffer.contents b

let prom_name name =
  let b = Buffer.create (String.length name + 10) in
  Buffer.add_string b "riskroute_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let to_prometheus ?(registry = Registry.default) () =
  let b = Buffer.create 2048 in
  let add = Buffer.add_string b in
  List.iter
    (fun name ->
      let n = prom_name name in
      add (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n
             (Counter.value (Hashtbl.find registry.r_counters name))))
    (sorted_names registry.r_counters);
  List.iter
    (fun name ->
      let n = prom_name name in
      add (Printf.sprintf "# TYPE %s gauge\n%s %d\n" n n
             (Gauge.value (Hashtbl.find registry.r_gauges name))))
    (sorted_names registry.r_gauges);
  List.iter
    (fun name ->
      let n = prom_name name in
      let s = Histogram.snapshot (Hashtbl.find registry.r_histograms name) in
      add (Printf.sprintf "# TYPE %s histogram\n" n);
      (* Sparse buckets: only boundaries where the cumulative count
         advances, plus +Inf. *)
      let cumulative = ref 0 in
      Array.iteri
        (fun i cnt ->
          if cnt > 0 && i < bucket_count - 1 then begin
            cumulative := !cumulative + cnt;
            add
              (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" n (bucket_bound i)
                 !cumulative)
          end)
        s.Histogram.buckets;
      add (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n s.Histogram.count);
      add (Printf.sprintf "%s_sum %g\n" n s.Histogram.sum);
      add (Printf.sprintf "%s_count %d\n" n s.Histogram.count))
    (sorted_names registry.r_histograms);
  Buffer.contents b

(* --- trace exposition (Chrome trace-event JSON) ---

   Serializes the completed span trees as a Chrome/Perfetto-loadable
   trace (chrome://tracing, https://ui.perfetto.dev). Mapping:

   - every span becomes one complete ("ph": "X") event; ts/dur are
     microseconds since registry creation;
   - the domain that executed a span is its track ("tid"), so a
     multicore run shows one lane per pool domain, with lanes named via
     "thread_name" metadata events ("main", "pool-worker-<i>");
   - span identity and parentage ride in "args" ({"id", "parent"}), and
     every parent link that crosses domains (a Parallel hand-off)
     additionally becomes a flow-event pair ("ph": "s"/"f", bound by
     the child span id), so the arrows survive in the trace viewer.

   Events are ordered by span id, so the output is reproducible given
   deterministic spans. *)

let us v = Printf.sprintf "%.3f" (v *. 1e6)

let to_trace ?(registry = Registry.default) () =
  let sps = spans ~registry () in
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let first = ref true in
  let event s =
    if not !first then add ",\n";
    first := false;
    add "    ";
    add s
  in
  add "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  event
    "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
     \"args\": {\"name\": \"riskroute\"}}";
  let domains =
    List.sort_uniq compare (List.map (fun sp -> sp.sp_domain) sps)
  in
  List.iter
    (fun d ->
      let name = Buffer.create 16 in
      json_escape name (domain_label d);
      event
        (Printf.sprintf
           "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \
            \"thread_name\", \"args\": {\"name\": \"%s\"}}"
           d (Buffer.contents name)))
    domains;
  let by_id = Hashtbl.create (List.length sps) in
  List.iter (fun sp -> Hashtbl.replace by_id sp.sp_id sp) sps;
  List.iter
    (fun sp ->
      let name = Buffer.create 32 in
      json_escape name sp.sp_name;
      event
        (Printf.sprintf
           "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %s, \"dur\": \
            %s, \"name\": \"%s\", \"cat\": \"riskroute\", \"args\": \
            {\"id\": %d, \"parent\": %d}}"
           sp.sp_domain (us sp.sp_start) (us sp.sp_dur)
           (Buffer.contents name) sp.sp_id sp.sp_parent);
      match Hashtbl.find_opt by_id sp.sp_parent with
      | Some parent when parent.sp_domain <> sp.sp_domain ->
        (* Cross-domain hand-off: draw a flow arrow from the parent's
           slice to the child's, bound by the child span id. *)
        event
          (Printf.sprintf
             "{\"ph\": \"s\", \"pid\": 1, \"tid\": %d, \"ts\": %s, \"id\": \
              %d, \"name\": \"handoff\", \"cat\": \"riskroute\"}"
             parent.sp_domain (us parent.sp_start) sp.sp_id);
        event
          (Printf.sprintf
             "{\"ph\": \"f\", \"bp\": \"e\", \"pid\": 1, \"tid\": %d, \
              \"ts\": %s, \"id\": %d, \"name\": \"handoff\", \"cat\": \
              \"riskroute\"}"
             sp.sp_domain (us sp.sp_start) sp.sp_id)
      | Some _ | None -> ())
    sps;
  add "\n  ]\n}\n";
  Buffer.contents b

(* --- exit dump ---

   RISKROUTE_TELEMETRY=<spec> (environment) or [enable_dump spec]
   (CLI/bench --telemetry) turn recording on and dump the default
   registry when the process exits. Spec: "-" / "stderr" / "1" / "true"
   / "on" write JSON to stderr (stdout stays clean for program output);
   anything else is a file path, with a ".prom" suffix selecting
   Prometheus text format instead of JSON.

   RISKROUTE_TRACE=<path> (environment) or [enable_trace path]
   (CLI/bench --trace) additionally write the Chrome trace-event JSON to
   [path] on exit. The trace always goes to a file of its own, never to
   stderr, so it composes with "--telemetry -" without interleaving. *)

let dump_dest = ref None

let trace_dest = ref None

let c_path_invalid = Counter.make "obs.dump_path_invalid"

let c_dump_failed = Counter.make "obs.dump_failed"

let stderr_spec = function
  | "-" | "stderr" | "1" | "true" | "on" -> true
  | _ -> false

(* Validate an output path when the dump is armed, not when the process
   exits: an unwritable directory otherwise only surfaces as a confusing
   exit-time failure after minutes of work. One clear stderr warning and
   a counter bump, mirroring the invalid RISKROUTE_DOMAINS handling; the
   dump stays armed so a path that becomes writable still works. *)
let validate_dump_path ~what spec =
  let writable path =
    try
      Unix.access path [ Unix.W_OK ];
      true
    with Unix.Unix_error _ -> false
  in
  let ok =
    stderr_spec spec
    ||
    let dir = Filename.dirname spec in
    (try Sys.is_directory dir with Sys_error _ -> false)
    && writable dir
    && ((not (Sys.file_exists spec)) || writable spec)
  in
  if not ok then begin
    Counter.incr c_path_invalid;
    Log.warnf
      "riskroute: %s output path %S is not writable (missing or read-only \
       directory?); the exit dump will likely fail"
      what spec
  end;
  ok

let enable_dump spec =
  set_enabled true;
  ignore (validate_dump_path ~what:"telemetry" spec);
  dump_dest := Some spec

let enable_trace path =
  set_enabled true;
  if stderr_spec path then begin
    Counter.incr c_path_invalid;
    Log.warnf
      "riskroute: trace output needs a file path, not %S; tracing disabled"
      path
  end
  else begin
    ignore (validate_dump_path ~what:"trace" path);
    trace_dest := Some path
  end

let write_trace path =
  let oc = open_out path in
  output_string oc (to_trace ());
  close_out oc

let write_dump spec =
  let to_stderr =
    match spec with
    | "-" | "stderr" | "1" | "true" | "on" -> true
    | _ -> false
  in
  let text =
    if (not to_stderr) && Filename.check_suffix spec ".prom" then
      to_prometheus ()
    else to_json ()
  in
  if to_stderr then begin
    output_string stderr text;
    flush stderr
  end
  else begin
    let oc = open_out spec in
    output_string oc text;
    close_out oc
  end

(* Tests: disarm both exit dumps without touching the enabled flag. *)
let disarm_dumps () =
  dump_dest := None;
  trace_dest := None

(* A failed exit dump used to be a stderr line and nothing else —
   invisible to tooling that only reads the telemetry artifacts. Now it
   is all three: an [obs.dump_failed] counter bump, a flight-recorder
   event (so post-mortem dumps name the artifact that went missing), and
   the stderr line, routed through [Log] so it carries level and span
   context when structured logging is configured. *)
let dump_failed ~what ~dest e =
  Counter.incr c_dump_failed;
  Flight.record ~kind:"error"
    ~name:(Printf.sprintf "obs.%s_dump_failed" what)
    ~detail:(Printf.sprintf "%s: %s" dest (Printexc.to_string e))
    ();
  Log.errorf "riskroute: %s dump to %S failed: %s" what dest
    (Printexc.to_string e)

(* --- Runtime_events self-monitoring (GC pause profiling) ---

   The flight ring's [Gc.create_alarm] tick says a major cycle finished;
   it cannot say how long the mutator actually stopped. [Rte] consumes
   the runtime's own event ring (OCaml 5 [Runtime_events], self
   cursor): minor/major slice begin/end pairs become pause-duration
   observations in the ordinary histograms [gc.pause.minor] and
   [gc.pause.major], so GC stalls reach every existing exposition
   surface — JSON dump quantiles, Prometheus buckets, the series
   sampler below — and each pause also lands as a synthetic root span
   in the default registry, so the Chrome trace shows collector slices
   interleaved with engine work on the domain lanes.

   Nothing here runs unless [start] is called (by [Series.enable],
   i.e. --series / RISKROUTE_SERIES, or directly by tests):
   unconfigured, no Runtime_events ring is ever created. [start] is a
   process-global switch; the consumer must be drained with [poll] —
   the series sampler does so every tick, and the exit dump takes a
   final drain. *)

module Rte = struct
  let minor_name = "gc.pause.minor"

  let major_name = "gc.pause.major"

  let c_lost = Counter.make "obs.rte_lost_events"

  (* One lock covers cursor lifecycle and polling: [read_poll] on a
     cursor is not reentrant, and the begin-timestamp table below is
     only touched from inside a poll. *)
  let lock = Mutex.create ()

  let cursor : Runtime_events.cursor option ref = ref None

  let callbacks : Runtime_events.Callbacks.t option ref = ref None

  (* Runtime_events timestamps are nanoseconds on the runtime's own
     monotonic epoch. The offset to [Clock.monotonic] is calibrated
     once, off the first polled event, so synthetic spans land near
     their true position on the shared trace timeline (the offset is
     approximate by up to one poll period; durations are exact). *)
  let calib = ref Float.nan

  (* In-flight collections per (ring domain, phase). *)
  let begins : (int * string, float) Hashtbl.t = Hashtbl.create 16

  let seconds ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts) *. 1e-9

  let phase_name = function
    | Runtime_events.EV_MINOR -> Some minor_name
    | Runtime_events.EV_MAJOR -> Some major_name
    | _ -> None

  (* [push_span] appends to the polling domain's DLS shard, which the
     domain's other threads share; the field update is a plain pointer
     store of an immutable cons, so a race with the mutator can at
     worst drop one span, never corrupt the list. *)
  let observe_pause ~ring ~name ~t0 ~t1 =
    let dur = t1 -. t0 in
    if dur >= 0.0 then begin
      Histogram.observe (Histogram.make name) dur;
      if Float.is_nan !calib then calib := Clock.monotonic () -. t1;
      let registry = Registry.default in
      push_span registry
        {
          sp_id = Atomic.fetch_and_add registry.r_next_span 1;
          sp_parent = 0;
          sp_name = name;
          sp_start = t0 +. !calib -. registry.r_created;
          sp_dur = dur;
          sp_domain = ring;
        }
    end

  let make_callbacks () =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        match phase_name phase with
        | Some name -> Hashtbl.replace begins (ring, name) (seconds ts)
        | None -> ())
      ~runtime_end:(fun ring ts phase ->
        match phase_name phase with
        | Some name -> (
          match Hashtbl.find_opt begins (ring, name) with
          | Some t0 ->
            Hashtbl.remove begins (ring, name);
            observe_pause ~ring ~name ~t0 ~t1:(seconds ts)
          | None -> () (* begin predates the cursor; skip the torso *))
        | None -> ())
      ~lost_events:(fun _ring n -> Counter.add c_lost n)
      ()

  let started () = Mutex.protect lock (fun () -> !cursor <> None)

  (* Idempotent; [false] when the runtime refuses a ring (some
     sandboxes reject the backing memory map), in which case the
     process carries on without pause profiling. *)
  let start () =
    Mutex.protect lock (fun () ->
        match !cursor with
        | Some _ -> true
        | None -> (
          match
            Runtime_events.start ();
            Runtime_events.create_cursor None
          with
          | c ->
            cursor := Some c;
            callbacks := Some (make_callbacks ());
            true
          | exception e ->
            Log.warnf
              "riskroute: Runtime_events self-monitoring unavailable: %s"
              (Printexc.to_string e);
            false))

  (* Drain pending runtime events into the histograms/spans; returns
     the number of events consumed. A no-op before [start]. *)
  let poll () =
    Mutex.protect lock (fun () ->
        match (!cursor, !callbacks) with
        | Some c, Some cbs -> Runtime_events.read_poll c cbs None
        | _ -> 0)
end

(* --- time-series sampler ---

   [Series] turns the cumulative registries into a trajectory: a
   fixed-capacity ring of timestamped samples, each the *delta* over
   the previous sample — counter increments, histogram windows (count,
   sum and bucket-rank p50/p90/p99 of just that window's observations),
   [Gc.quick_stat] movement — plus absolute gauge values and the
   engine-cache stats provider's fields. Enabled via --series /
   RISKROUTE_SERIES (period from RISKROUTE_SAMPLE_PERIOD, default 1s);
   unconfigured, no sampler thread is spawned and nothing here costs a
   cycle. The ring is dumped as schema'd JSON at exit and served live
   on GET /series. *)

module Series = struct
  type hwindow = {
    w_count : int;
    w_sum : float;
    w_p50 : float;
    w_p90 : float;
    w_p99 : float;
  }

  type sample = {
    s_seq : int;
    s_time : float; (* seconds since process_epoch *)
    s_counters : (string * int) list; (* window deltas, nonzero only *)
    s_gauges : (string * int) list; (* absolute values, nonzero only *)
    s_hists : (string * hwindow) list; (* windows with observations *)
    s_gc_minor_words : float; (* window delta *)
    s_gc_major_words : float;
    s_gc_minor_collections : int;
    s_gc_major_collections : int;
    s_gc_heap_words : int; (* absolute *)
    s_stats : (string * int) list; (* provider fields, absolute *)
  }

  let default_capacity = 512

  let default_period = 1.0

  (* [lock] owns the ring, the delta baselines and the dump arming;
     [tlock] owns the sampler-thread lifecycle (so stopping the thread
     can join it without holding the ring lock its final sample
     needs). *)
  let lock = Mutex.create ()

  let cap = ref default_capacity

  let ring : sample option array ref = ref (Array.make default_capacity None)

  let count = ref 0 (* samples ever taken *)

  let period_cell = ref default_period

  let dest : string option ref = ref None

  let prev_counters : (string, int) Hashtbl.t = Hashtbl.create 64

  let prev_hists : (string, int array * int * float) Hashtbl.t =
    Hashtbl.create 32

  (* (minor_words, major_words, minor_collections, major_collections)
     at the previous sample; the first window measures from process
     start. *)
  let prev_gc = ref (0.0, 0.0, 0, 0)

  let stats_provider : (unit -> (string * int) list) ref = ref (fun () -> [])

  let set_stats_provider f = stats_provider := f

  let set_period p =
    if not (Float.is_finite p && p > 0.0) then
      invalid_arg "Series.set_period: need positive seconds";
    period_cell := p

  let period () = !period_cell

  let capacity () = Mutex.protect lock (fun () -> !cap)

  (* Tests: resize (and empty) the ring. *)
  let set_capacity k =
    if k <= 0 then invalid_arg "Series.set_capacity: need k > 0";
    Mutex.protect lock (fun () ->
        cap := k;
        ring := Array.make k None;
        count := 0)

  let recorded () = Mutex.protect lock (fun () -> !count)

  let reset () =
    Mutex.protect lock (fun () ->
        Array.fill !ring 0 (Array.length !ring) None;
        count := 0;
        Hashtbl.reset prev_counters;
        Hashtbl.reset prev_hists;
        prev_gc := (0.0, 0.0, 0, 0))

  (* Take one sample right now: drain the Runtime_events consumer so
     this window owns its GC pauses, snapshot every metric, store the
     deltas. Exposed for deterministic tests; the sampler thread calls
     it on its period. *)
  let sample_now () =
    ignore (Rte.poll ());
    let reg = Registry.default in
    Mutex.lock reg.r_lock;
    let counters =
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) reg.r_counters []
    in
    let gauges = Hashtbl.fold (fun k g acc -> (k, g) :: acc) reg.r_gauges [] in
    let hists =
      Hashtbl.fold (fun k h acc -> (k, h) :: acc) reg.r_histograms []
    in
    Mutex.unlock reg.r_lock;
    let stats = try !stats_provider () with _ -> [] in
    let g = Gc.quick_stat () in
    let mw = Gc.minor_words () in
    let by_name (a, _) (b, _) = compare (a : string) b in
    Mutex.protect lock (fun () ->
        let t = Clock.monotonic () -. process_epoch in
        let cdeltas =
          List.filter_map
            (fun (name, c) ->
              let v = Counter.value c in
              let prev =
                Option.value (Hashtbl.find_opt prev_counters name) ~default:0
              in
              Hashtbl.replace prev_counters name v;
              if v <> prev then Some (name, v - prev) else None)
            counters
        in
        let gvals =
          List.filter_map
            (fun (name, gg) ->
              let v = Gauge.value gg in
              if v <> 0 then Some (name, v) else None)
            gauges
        in
        let hwins =
          List.filter_map
            (fun (name, h) ->
              let s = Histogram.snapshot h in
              let pb, pc, ps =
                Option.value
                  (Hashtbl.find_opt prev_hists name)
                  ~default:(Array.make bucket_count 0, 0, 0.0)
              in
              let wb =
                Array.init bucket_count (fun i ->
                    s.Histogram.buckets.(i) - pb.(i))
              in
              let wcount = s.Histogram.count - pc in
              let wsum = s.Histogram.sum -. ps in
              Hashtbl.replace prev_hists name
                (s.Histogram.buckets, s.Histogram.count, s.Histogram.sum);
              if wcount <= 0 then None
              else begin
                (* Window min/max are unknowable from cumulative
                   min/max, so window quantiles are pure bucket
                   bounds (the infinite clamp is a no-op). *)
                let ws =
                  {
                    Histogram.count = wcount;
                    sum = wsum;
                    vmin = neg_infinity;
                    vmax = infinity;
                    buckets = wb;
                  }
                in
                Some
                  ( name,
                    {
                      w_count = wcount;
                      w_sum = wsum;
                      w_p50 = Histogram.quantile ws 0.50;
                      w_p90 = Histogram.quantile ws 0.90;
                      w_p99 = Histogram.quantile ws 0.99;
                    } )
              end)
            hists
        in
        let p_mw, p_majw, p_minc, p_majc = !prev_gc in
        prev_gc :=
          (mw, g.Gc.major_words, g.Gc.minor_collections,
           g.Gc.major_collections);
        let s =
          {
            s_seq = !count + 1;
            s_time = t;
            s_counters = List.sort by_name cdeltas;
            s_gauges = List.sort by_name gvals;
            s_hists = List.sort by_name hwins;
            s_gc_minor_words = mw -. p_mw;
            s_gc_major_words = g.Gc.major_words -. p_majw;
            s_gc_minor_collections = g.Gc.minor_collections - p_minc;
            s_gc_major_collections = g.Gc.major_collections - p_majc;
            s_gc_heap_words = g.Gc.heap_words;
            s_stats = List.sort by_name stats;
          }
        in
        let k = Array.length !ring in
        !ring.(!count mod k) <- Some s;
        incr count)

  (* Retained samples, oldest first. *)
  let samples () =
    Mutex.protect lock (fun () ->
        let c = !count and k = Array.length !ring in
        let n = min c k in
        List.init n (fun i ->
            match !ring.((c - n + i) mod k) with
            | Some s -> s
            | None -> assert false))

  let to_json () =
    let sams = samples () in
    let b = Buffer.create 4096 in
    let add = Buffer.add_string b in
    let fields out l =
      if l = [] then add "{}"
      else begin
        add "{";
        List.iteri
          (fun i (name, v) ->
            if i > 0 then add ", ";
            add "\"";
            json_escape b name;
            add "\": ";
            out v)
          l;
        add "}"
      end
    in
    add "{\n  \"schema\": 1,\n";
    add (Printf.sprintf "  \"period_seconds\": %s,\n" (fnum (period ())));
    add (Printf.sprintf "  \"capacity\": %d,\n" (capacity ()));
    add (Printf.sprintf "  \"recorded\": %d,\n" (recorded ()));
    add (Printf.sprintf "  \"retained\": %d,\n" (List.length sams));
    add "  \"samples\": [";
    List.iteri
      (fun i s ->
        add (if i = 0 then "\n" else ",\n");
        add
          (Printf.sprintf "    {\"seq\": %d, \"time\": %s,\n     \"counters\": "
             s.s_seq (fnum s.s_time));
        fields (fun v -> add (string_of_int v)) s.s_counters;
        add ",\n     \"gauges\": ";
        fields (fun v -> add (string_of_int v)) s.s_gauges;
        add ",\n     \"histograms\": ";
        fields
          (fun w ->
            add
              (Printf.sprintf
                 "{\"count\": %d, \"sum\": %s, \"p50\": %s, \"p90\": %s, \
                  \"p99\": %s}"
                 w.w_count (fnum w.w_sum) (fnum w.w_p50) (fnum w.w_p90)
                 (fnum w.w_p99)))
          s.s_hists;
        add ",\n     \"gc\": ";
        add
          (Printf.sprintf
             "{\"minor_words\": %s, \"major_words\": %s, \
              \"minor_collections\": %d, \"major_collections\": %d, \
              \"heap_words\": %d}"
             (fnum s.s_gc_minor_words) (fnum s.s_gc_major_words)
             s.s_gc_minor_collections s.s_gc_major_collections
             s.s_gc_heap_words);
        add ",\n     \"stats\": ";
        fields (fun v -> add (string_of_int v)) s.s_stats;
        add "}")
      sams;
    add (if sams = [] then "]\n}\n" else "\n  ]\n}\n");
    Buffer.contents b

  (* --- sampler thread --- *)

  let tlock = Mutex.create ()

  let sampler : (Thread.t * Unix.file_descr * Unix.file_descr) option ref =
    ref None

  let sampler_running () = Mutex.protect tlock (fun () -> !sampler <> None)

  (* The stop pipe doubles as the timer: [select] blocks for one period
     or until [stop_sampler] writes a byte, so shutdown is prompt even
     mid-period. *)
  let rec sampler_loop rd =
    match Unix.select [ rd ] [] [] (period ()) with
    | [], _, _ ->
      sample_now ();
      sampler_loop rd
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> sampler_loop rd

  let start_sampler () =
    Mutex.protect tlock (fun () ->
        if !sampler = None then begin
          let rd, wr = Unix.pipe () in
          let t = Thread.create sampler_loop rd in
          sampler := Some (t, rd, wr)
        end)

  (* Join the thread, then take one final sample: a run shorter than
     the period still records its whole story as one window. *)
  let stop_sampler () =
    let s =
      Mutex.protect tlock (fun () ->
          let s = !sampler in
          sampler := None;
          s)
    in
    match s with
    | None -> ()
    | Some (t, rd, wr) ->
      (try ignore (Unix.write_substring wr "x" 0 1)
       with Unix.Unix_error _ -> ());
      Thread.join t;
      (try Unix.close wr with Unix.Unix_error _ -> ());
      (try Unix.close rd with Unix.Unix_error _ -> ());
      sample_now ()

  let write_dump spec =
    let text = to_json () in
    if stderr_spec spec then begin
      output_string stderr text;
      flush stderr
    end
    else begin
      let oc = open_out spec in
      output_string oc text;
      close_out oc
    end

  (* [--series SPEC] / RISKROUTE_SERIES=SPEC: turn recording on, start
     the Runtime_events consumer and the sampler thread, and arm the
     exit dump ("-"/"stderr" or a file path, like --telemetry). *)
  let enable spec =
    set_enabled true;
    ignore (validate_dump_path ~what:"series" spec);
    Mutex.protect lock (fun () -> dest := Some spec);
    ignore (Rte.start ());
    start_sampler ()

  let disarm () =
    Mutex.protect lock (fun () -> dest := None)

  let exit_dump () =
    let armed = Mutex.protect lock (fun () -> !dest) in
    if armed <> None || sampler_running () then stop_sampler ();
    match armed with
    | None -> ()
    | Some spec -> (
      try write_dump spec with e -> dump_failed ~what:"series" ~dest:spec e)
end

(* Post-mortem companion to the flight ring: the SIGUSR1 handler also
   writes a full telemetry snapshot next to the flight dump
   ("<flight>.json" -> "<flight>-telemetry.json"), so a poke at a live
   process captures counters and histograms too, not just recent
   events. *)
let telemetry_snapshot_path () =
  let p = !Flight.dump_path in
  if Filename.check_suffix p ".json" then
    Filename.chop_suffix p ".json" ^ "-telemetry.json"
  else p ^ "-telemetry.json"

let () =
  (match Envvar.trimmed Envvar.telemetry with
  | Some v -> enable_dump v
  | None -> ());
  (match Envvar.trimmed Envvar.trace with
  | Some v -> enable_trace v
  | None -> ());
  (match Envvar.trimmed Envvar.log with
  | Some v -> (
    match Log.level_of_string v with
    | Some _ as l -> Log.set_level l
    | None ->
      (match String.lowercase_ascii (String.trim v) with
      | "off" | "none" | "0" -> () (* explicit "leave me unconfigured" *)
      | _ ->
        Log.warnf
          "riskroute: ignoring invalid RISKROUTE_LOG=%S (want \
           debug|info|warn|error)"
          v))
  | None -> ());
  (match Envvar.trimmed Envvar.flight with
  | Some v -> Flight.set_dump_path v
  | None -> ());
  (match Envvar.raw Envvar.flight_cap with
  | None -> ()
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some k when k >= 0 -> Flight.set_capacity k
    | Some _ | None ->
      Log.warnf
        "riskroute: ignoring invalid RISKROUTE_FLIGHT_CAP=%S (want a \
         non-negative integer)"
        v));
  (* Period first, so RISKROUTE_SERIES starts its sampler on the
     configured cadence. *)
  (match Envvar.raw Envvar.sample_period with
  | None -> ()
  | Some v -> (
    match float_of_string_opt (String.trim v) with
    | Some p when Float.is_finite p && p > 0.0 -> Series.set_period p
    | Some _ | None ->
      Log.warnf
        "riskroute: ignoring invalid RISKROUTE_SAMPLE_PERIOD=%S (want \
         positive seconds)"
        v));
  (match Envvar.trimmed Envvar.series with
  | Some v -> Series.enable v
  | None -> ());
  (* GC major slices land in the flight ring: a post-mortem dump can
     distinguish "stalled in our code" from "stalled collecting". *)
  ignore
    (Gc.create_alarm (fun () ->
         Flight.record ~kind:"gc_major" ~name:"gc.major_cycle" ()));
  (* Post-mortem hooks: SIGUSR1 dumps the flight ring and the process
     continues; an uncaught exception dumps it on the way down, then
     defers to the default handler (backtrace printing intact). *)
  (try
     Sys.set_signal Sys.sigusr1
       (Sys.Signal_handle
          (fun _ ->
            Flight.record ~kind:"signal" ~name:"sigusr1" ();
            (try ignore (Flight.write_dump ()) with _ -> ());
            (* Full telemetry snapshot alongside the flight ring: a
               post-mortem poke captures the cumulative counters and
               histograms too, not just recent events. *)
            try
              let oc = open_out (telemetry_snapshot_path ()) in
              output_string oc (to_json ());
              close_out oc
            with _ -> ()))
   with Invalid_argument _ | Sys_error _ -> () (* no SIGUSR1 here *));
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      Flight.record ~kind:"crash" ~name:"uncaught_exception"
        ~detail:(Printexc.to_string exn) ();
      (try ignore (Flight.write_dump ()) with _ -> ());
      Printexc.default_uncaught_exception_handler exn bt);
  at_exit (fun () ->
      (* Series first (stopping the sampler takes the final window, and
         its dump drains the Runtime_events consumer so the last GC
         pauses reach the trace and telemetry below), then trace, then
         metrics: each write is a single buffered file or stderr write,
         so "--trace f.json --telemetry -" never interleaves on
         stderr. *)
      Series.exit_dump ();
      (match !trace_dest with
      | None -> ()
      | Some path -> (
        try write_trace path with e -> dump_failed ~what:"trace" ~dest:path e));
      match !dump_dest with
      | None -> ()
      | Some spec -> (
        try write_dump spec
        with e -> dump_failed ~what:"telemetry" ~dest:spec e))
