(* The live observability plane (see DESIGN.md 3g).

   One background POSIX thread owns a listening socket and serves
   single-shot HTTP/1.1 GETs. Every handler is a read-only snapshot of
   Rr_obs / engine state behind the same merge-on-read locks the exit
   dumps use, so serving concurrently with the computation changes no
   results: the worst a request can do is briefly take a metric's shard
   mutex. A thread (not a domain) keeps the server off the domain
   pool's accounting and inherits the main domain's DLS-free paths; it
   blocks in [accept] inside a release-the-runtime-lock section, so it
   costs nothing while idle. *)

(* --- request metrics (recorded only while Rr_obs is enabled, which
   [start] guarantees) --- *)

let c_requests = Rr_obs.Counter.make "live.requests"

let c_errors = Rr_obs.Counter.make "live.errors"

let g_port = Rr_obs.Gauge.make "live.port"

(* --- /stats provider ---

   Rr_live sits below the engine in the dependency order, so the engine
   cache snapshot is injected: the CLI and bench register
   [Rr_engine.Context.stats_json] over their shared context. *)

let default_stats () =
  "{\"error\": \"no stats provider registered; run via the riskroute CLI \
   or bench harness\"}\n"

let stats_provider = ref default_stats

let set_stats_provider f = stats_provider := f

(* --- /explain provider ---

   Same inversion as /stats: route explanation needs the engine and the
   explain layer, both above Rr_live in the dependency order, so the
   CLI/bench register a closure over their shared context. The provider
   gets the decoded query parameters and returns the JSON body, or a
   client-error message (400). *)

let default_explain _params =
  Error
    "no explain provider registered; run via the riskroute CLI or bench \
     harness"

let explain_provider = ref default_explain

let set_explain_provider f = explain_provider := f

let default_stall_deadline = 60.0

let stall_deadline_cell = ref default_stall_deadline

let set_stall_deadline d =
  if not (Float.is_finite d && d > 0.0) then
    invalid_arg "Rr_live.set_stall_deadline: need a positive deadline";
  stall_deadline_cell := d

let stall_deadline () = !stall_deadline_cell

let () =
  match Rr_obs.Envvar.(raw stall_deadline) with
  | None -> ()
  | Some v -> (
    match float_of_string_opt (String.trim v) with
    | Some d when Float.is_finite d && d > 0.0 -> stall_deadline_cell := d
    | Some _ | None ->
      Rr_obs.Log.warnf
        "riskroute: ignoring invalid RISKROUTE_STALL_DEADLINE=%S (want \
         positive seconds)"
        v)

let healthz () =
  let now = Rr_obs.Clock.monotonic () in
  let deadline = stall_deadline () in
  let open_spans = Rr_obs.open_spans () in
  let stalled =
    List.filter
      (fun (sp : Rr_obs.open_span) -> now -. sp.Rr_obs.op_start > deadline)
      open_spans
  in
  let healthy = stalled = [] in
  let b = Buffer.create 256 in
  let add = Buffer.add_string b in
  add "{\n";
  add
    (Printf.sprintf "  \"status\": \"%s\",\n"
       (if healthy then "ok" else "degraded"));
  add (Printf.sprintf "  \"pid\": %d,\n" (Unix.getpid ()));
  add "  \"git_rev\": \"";
  Rr_obs.json_escape b (Rr_obs.git_rev ());
  add "\",\n";
  add "  \"schemas\": {";
  List.iteri
    (fun i (name, version) ->
      if i > 0 then add ", ";
      add "\"";
      Rr_obs.json_escape b name;
      add (Printf.sprintf "\": %d" version))
    (Rr_obs.Schema.all ());
  add "},\n";
  add
    (Printf.sprintf "  \"uptime_seconds\": %s,\n"
       (Rr_obs.fnum (now -. Rr_obs.process_epoch)));
  add
    (Printf.sprintf "  \"stall_deadline_seconds\": %s,\n"
       (Rr_obs.fnum deadline));
  add (Printf.sprintf "  \"open_spans\": %d,\n" (List.length open_spans));
  add "  \"stalled\": [";
  List.iteri
    (fun i (sp : Rr_obs.open_span) ->
      add (if i = 0 then "\n" else ",\n");
      add
        (Printf.sprintf "    {\"domain\": \"%s\", \"span\": %d, \"name\": \""
           (Rr_obs.domain_label sp.Rr_obs.op_domain)
           sp.Rr_obs.op_id);
      Rr_obs.json_escape b sp.Rr_obs.op_name;
      add
        (Printf.sprintf "\", \"age_seconds\": %s}"
           (Rr_obs.fnum (now -. sp.Rr_obs.op_start))))
    stalled;
  add (if stalled = [] then "]\n}\n" else "\n  ]\n}\n");
  (healthy, Buffer.contents b)

(* --- routing --- *)

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

let json_ct = "application/json"

let text_ct = "text/plain; charset=utf-8"

let prom_ct = "text/plain; version=0.0.4; charset=utf-8"

let index_body =
  "riskroute live observability\n\
   /metrics  Prometheus exposition of the live registry\n\
   /healthz  liveness + span-stall watchdog (503 when degraded)\n\
   /stats    engine cache snapshot (hits, misses, evictions, occupancy)\n\
   /flight   recent-event flight recorder, merged across domains\n\
   /series   time-series sampler ring (timestamped metric deltas)\n\
   /explain  route provenance: /explain?net=..&src=..&dst=..\n"

(* --- query-string decoding (application/x-www-form-urlencoded) ---

   PoP names carry spaces ("New York"), so /explain values arrive
   percent-encoded or '+'-separated. A malformed escape is kept
   verbatim: the provider's name resolution reports it more usefully
   than a blanket 400 here could. *)

let percent_decode s =
  let hex = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i < n then begin
      (match s.[i] with
      | '+' ->
        Buffer.add_char b ' ';
        go (i + 1)
      | '%' when i + 2 < n && hex s.[i + 1] >= 0 && hex s.[i + 2] >= 0 ->
        Buffer.add_char b (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
        go (i + 3)
      | c ->
        Buffer.add_char b c;
        go (i + 1))
    end
  in
  go 0;
  Buffer.contents b

let parse_query q =
  List.filter_map
    (fun kv ->
      if kv = "" then None
      else
        match String.index_opt kv '=' with
        | Some i ->
          Some
            ( percent_decode (String.sub kv 0 i),
              percent_decode (String.sub kv (i + 1) (String.length kv - i - 1))
            )
        | None -> Some (percent_decode kv, ""))
    (String.split_on_char '&' q)

let handle path =
  Rr_obs.Counter.incr c_requests;
  (* Split off the query string; only /explain consumes it, the other
     endpoints take no parameters. *)
  let path, query =
    match String.index_opt path '?' with
    | Some i ->
      ( String.sub path 0 i,
        String.sub path (i + 1) (String.length path - i - 1) )
    | None -> (path, "")
  in
  match path with
  | "/" | "" ->
    { status = 200; content_type = text_ct; headers = []; body = index_body }
  | "/metrics" ->
    {
      status = 200;
      content_type = prom_ct;
      headers = [];
      body = Rr_obs.to_prometheus ();
    }
  | "/healthz" ->
    let healthy, body = healthz () in
    {
      status = (if healthy then 200 else 503);
      content_type = json_ct;
      headers = [];
      body;
    }
  | "/stats" -> (
    match !stats_provider () with
    | body -> { status = 200; content_type = json_ct; headers = []; body }
    | exception e ->
      Rr_obs.Counter.incr c_errors;
      let b = Buffer.create 64 in
      Buffer.add_string b "{\"error\": \"stats provider failed: ";
      Rr_obs.json_escape b (Printexc.to_string e);
      Buffer.add_string b "\"}\n";
      {
        status = 500;
        content_type = json_ct;
        headers = [];
        body = Buffer.contents b;
      })
  | "/flight" ->
    {
      status = 200;
      content_type = json_ct;
      headers = [];
      body = Rr_obs.Flight.to_json ();
    }
  | "/series" ->
    {
      status = 200;
      content_type = json_ct;
      headers = [];
      body = Rr_obs.Series.to_json ();
    }
  | "/explain" -> (
    match !explain_provider (parse_query query) with
    | Ok body -> { status = 200; content_type = json_ct; headers = []; body }
    | Error msg ->
      Rr_obs.Counter.incr c_errors;
      let b = Buffer.create 64 in
      Buffer.add_string b "{\"error\": \"";
      Rr_obs.json_escape b msg;
      Buffer.add_string b "\"}\n";
      {
        status = 400;
        content_type = json_ct;
        headers = [];
        body = Buffer.contents b;
      }
    | exception e ->
      Rr_obs.Counter.incr c_errors;
      let b = Buffer.create 64 in
      Buffer.add_string b "{\"error\": \"explain provider failed: ";
      Rr_obs.json_escape b (Printexc.to_string e);
      Buffer.add_string b "\"}\n";
      {
        status = 500;
        content_type = json_ct;
        headers = [];
        body = Buffer.contents b;
      })
  | _ ->
    Rr_obs.Counter.incr c_errors;
    { status = 404; content_type = text_ct; headers = []; body = "not found\n" }

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let render r =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) r.headers)
  in
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n%sContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    r.status (status_text r.status) r.content_type extra
    (String.length r.body) r.body

(* --- the server --- *)

type server = {
  sock : Unix.file_descr;
  bound_port : int;
  mutable thread : Thread.t option;
  mutable stopping : bool;
}

let state_lock = Mutex.create ()

let state : server option ref = ref None

let running () = Mutex.protect state_lock (fun () -> !state <> None)

let port () =
  Mutex.protect state_lock (fun () ->
      Option.map (fun s -> s.bound_port) !state)

(* The whole request head (line + headers) must arrive within
   [head_deadline] seconds: each read's receive timeout is the time left,
   so a client dribbling bytes cannot hold the single server thread
   longer than that. The endpoints need nothing past the request line. *)
let head_deadline = 5.0

let read_request_line fd =
  let deadline = Unix.gettimeofday () +. head_deadline in
  let buf = Bytes.create 2048 in
  let b = Buffer.create 256 in
  let rec has_newline i n =
    i < n && (Bytes.get buf i = '\n' || has_newline (i + 1) n)
  in
  let rec go seen_newline =
    let left = deadline -. Unix.gettimeofday () in
    if Buffer.length b > 8192 || left <= 0.0 then None
    else begin
      (* A zero timeval means "no timeout": keep at least a millisecond. *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max left 0.001)
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> if Buffer.length b > 0 then Some (Buffer.contents b) else None
      | n ->
        Buffer.add_subbytes b buf 0 n;
        let seen_newline = seen_newline || has_newline 0 n in
        if seen_newline && Buffer.length b >= 2 then Some (Buffer.contents b)
        else go seen_newline
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        None
    end
  in
  go false

let parse_request head =
  let line =
    match String.index_opt head '\n' with
    | Some i -> String.trim (String.sub head 0 i)
    | None -> String.trim head
  in
  match String.split_on_char ' ' line with
  | [ "GET"; path; _version ] -> Ok path
  | "GET" :: path :: _ -> Ok path
  | meth :: _ when meth <> "GET" && meth <> "" ->
    Error
      {
        status = 405;
        content_type = text_ct;
        headers = [ ("Allow", "GET") ];
        body = "GET only\n";
      }
  | _ ->
    Error
      {
        status = 400;
        content_type = text_ct;
        headers = [];
        body = "bad request\n";
      }

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let serve_client fd =
  let response =
    match read_request_line fd with
    | None ->
      Rr_obs.Counter.incr c_errors;
      {
        status = 400;
        content_type = text_ct;
        headers = [];
        body = "bad request\n";
      }
    | Some head -> (
      match parse_request head with
      | Ok path -> handle path
      | Error r ->
        Rr_obs.Counter.incr c_errors;
        r)
  in
  try write_all fd (render response)
  with Unix.Unix_error _ -> () (* client went away; nothing to salvage *)

let rec server_loop srv =
  match Unix.accept srv.sock with
  | fd, _addr ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try serve_client fd with _ -> Rr_obs.Counter.incr c_errors);
    server_loop srv
  | exception Unix.Unix_error (EINTR, _, _) -> server_loop srv
  | exception Unix.Unix_error _ ->
    (* [stop] closed the listening socket (or something fatal happened
       to it); either way the serving thread is done. *)
    ()

let start ?(addr = "127.0.0.1") ~port:requested_port () =
  Mutex.protect state_lock (fun () ->
      match !state with
      | Some s ->
        Error
          (Printf.sprintf "live endpoint already running on port %d"
             s.bound_port)
      | None -> (
        match
          let inet = Unix.inet_addr_of_string addr in
          let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.setsockopt sock Unix.SO_REUSEADDR true;
             Unix.bind sock (Unix.ADDR_INET (inet, requested_port));
             Unix.listen sock 16
           with e ->
             (try Unix.close sock with Unix.Unix_error _ -> ());
             raise e);
          let bound_port =
            match Unix.getsockname sock with
            | Unix.ADDR_INET (_, p) -> p
            | Unix.ADDR_UNIX _ -> requested_port
          in
          (sock, bound_port)
        with
        | sock, bound_port ->
          (* Live metrics over a disabled registry would serve zeros;
             the endpoint implies recording. *)
          Rr_obs.set_enabled true;
          Rr_obs.Gauge.set g_port bound_port;
          let srv = { sock; bound_port; thread = None; stopping = false } in
          srv.thread <- Some (Thread.create server_loop srv);
          state := Some srv;
          Ok bound_port
        | exception e ->
          Error
            (Printf.sprintf "live endpoint failed to bind %s:%d: %s" addr
               requested_port (Printexc.to_string e))))

let stop () =
  let srv =
    Mutex.protect state_lock (fun () ->
        let s = !state in
        state := None;
        s)
  in
  match srv with
  | None -> ()
  | Some srv ->
    srv.stopping <- true;
    (* Closing the listener makes the blocked [accept] fail, which ends
       the serving thread's loop. *)
    (try Unix.shutdown srv.sock Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close srv.sock with Unix.Unix_error _ -> ());
    (match srv.thread with Some t -> Thread.join t | None -> ());
    Rr_obs.Gauge.set g_port 0

let () = at_exit stop

let autostart_from_env () =
  match Rr_obs.Envvar.(raw live) with
  | None -> ()
  | Some v when String.trim v = "" -> ()
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some p when p >= 0 && p < 65536 -> (
      if not (running ()) then
        match start ~port:p () with
        | Ok bound ->
          Rr_obs.Log.infof
            "riskroute: live introspection listening on http://127.0.0.1:%d/"
            bound
        | Error msg -> Rr_obs.Log.warnf "riskroute: %s" msg)
    | Some _ | None ->
      Rr_obs.Log.warnf
        "riskroute: ignoring invalid RISKROUTE_LIVE=%S (want a port number)"
        v)
