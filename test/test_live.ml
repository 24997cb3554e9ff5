(* The live observability plane: pure routing and rendering, golden
   responses over a real listener on an ephemeral port, and the
   span-stall watchdog driven through the swappable clock. *)

let with_telemetry f =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) f

(* Every listener test stops the server (and re-disables recording,
   which [Rr_live.start] turns on) even when an assertion fails. *)
let with_server f =
  match Rr_live.start ~port:0 () with
  | Error msg -> Alcotest.failf "start failed: %s" msg
  | Ok port ->
    Fun.protect
      ~finally:(fun () ->
        Rr_live.stop ();
        Rr_obs.set_enabled false)
      (fun () -> f port)

(* A minimal blocking HTTP client: one GET, read to EOF, split the
   status line, headers and body apart. *)
let http_get ?(request = fun path -> "GET " ^ path ^ " HTTP/1.1\r\n\r\n")
    port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
  @@ fun () ->
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  let req = request path in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      drain ()
  in
  drain ();
  let raw = Buffer.contents b in
  let header_end =
    match String.index_opt raw '\r' with
    | None -> Alcotest.failf "no CRLF in response: %S" raw
    | Some _ -> (
      let rec find i =
        if i + 4 > String.length raw then
          Alcotest.failf "no header terminator in response: %S" raw
        else if String.sub raw i 4 = "\r\n\r\n" then i
        else find (i + 1)
      in
      find 0)
  in
  let head = String.sub raw 0 header_end in
  let body =
    String.sub raw (header_end + 4) (String.length raw - header_end - 4)
  in
  let lines = String.split_on_char '\n' head in
  let status_line = String.trim (List.hd lines) in
  let status =
    match String.split_on_char ' ' status_line with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.failf "bad status line: %S" status_line
  in
  let headers =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i ->
          Some
            ( String.lowercase_ascii (String.sub l 0 i),
              String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
        | None -> None)
      (List.tl lines)
  in
  (status, headers, body)

let header name headers =
  match List.assoc_opt name headers with
  | Some v -> v
  | None -> Alcotest.failf "response has no %s header" name

let json_of body =
  match Rr_perf.Json.parse body with
  | Ok j -> j
  | Error e -> Alcotest.failf "body is not valid JSON: %s\n%s" e body

let json_str key j =
  match Option.bind (Rr_perf.Json.member key j) Rr_perf.Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "JSON has no string %S" key

let json_int key j =
  match Option.bind (Rr_perf.Json.member key j) Rr_perf.Json.to_int with
  | Some n -> n
  | None -> Alcotest.failf "JSON has no int %S" key

(* --- pure routing core --- *)

let test_handle_routing () =
  with_telemetry @@ fun () ->
  let check_status path status =
    Alcotest.(check int) path status (Rr_live.handle path).Rr_live.status
  in
  check_status "/" 200;
  check_status "/metrics" 200;
  check_status "/healthz" 200;
  check_status "/stats" 200;
  check_status "/flight" 200;
  check_status "/series" 200;
  check_status "/nope" 404;
  (* /explain with no provider registered is a client error, not a
     crash: the default provider explains how to get one. *)
  check_status "/explain?net=Level3&src=Houston&dst=Boston" 400;
  (* Query strings are ignored, not 404ed. *)
  check_status "/metrics?refresh=1" 200;
  Alcotest.(check string) "metrics content type"
    "text/plain; version=0.0.4; charset=utf-8"
    (Rr_live.handle "/metrics").Rr_live.content_type

let test_render_golden () =
  let r =
    {
      Rr_live.status = 200;
      content_type = "text/plain";
      headers = [];
      body = "hi\n";
    }
  in
  Alcotest.(check string) "rendered bytes"
    "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\
     Connection: close\r\n\r\nhi\n"
    (Rr_live.render r);
  (* Extra headers slot in between Content-Type and Content-Length. *)
  Alcotest.(check string) "extra headers rendered"
    "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: text/plain\r\n\
     Allow: GET\r\nContent-Length: 3\r\nConnection: close\r\n\r\nno\n"
    (Rr_live.render
       {
         Rr_live.status = 405;
         content_type = "text/plain";
         headers = [ ("Allow", "GET") ];
         body = "no\n";
       })

let test_stats_provider () =
  with_telemetry @@ fun () ->
  let golden = "{\"env\": {\"hits\": 3}}\n" in
  Rr_live.set_stats_provider (fun () -> golden);
  Alcotest.(check string) "provider body served verbatim" golden
    (Rr_live.handle "/stats").Rr_live.body;
  Rr_live.set_stats_provider (fun () -> failwith "cache exploded");
  let r = Rr_live.handle "/stats" in
  Alcotest.(check int) "raising provider is a 500" 500 r.Rr_live.status;
  Alcotest.(check bool) "error body names the exception" true
    (json_str "error" (json_of r.Rr_live.body) <> "");
  Rr_live.set_stats_provider (fun () -> golden)

(* --- query decoding and the /explain provider --- *)

let test_parse_query () =
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.(check pairs) "empty query" [] (Rr_live.parse_query "");
  Alcotest.(check pairs) "plain pairs"
    [ ("net", "Level3"); ("src", "Houston"); ("dst", "Boston") ]
    (Rr_live.parse_query "net=Level3&src=Houston&dst=Boston");
  Alcotest.(check pairs) "plus and percent escapes decode"
    [ ("src", "New York"); ("q", "a&b=c") ]
    (Rr_live.parse_query "src=New+York&q=a%26b%3Dc");
  Alcotest.(check pairs) "bare key becomes empty value" [ ("json", "") ]
    (Rr_live.parse_query "json");
  Alcotest.(check pairs) "malformed escape kept verbatim"
    [ ("x", "%zz"); ("y", "%4") ]
    (Rr_live.parse_query "x=%zz&y=%4");
  Alcotest.(check pairs) "empty segments dropped" [ ("a", "1") ]
    (Rr_live.parse_query "&a=1&")

let test_explain_provider () =
  with_telemetry @@ fun () ->
  Fun.protect ~finally:(fun () ->
      Rr_live.set_explain_provider (fun _ -> Error "no explain provider"))
  @@ fun () ->
  (* The handler decodes the query string and hands the provider the
     parsed pairs; an Ok body is served verbatim as JSON. *)
  let seen = ref [] in
  Rr_live.set_explain_provider (fun params ->
      seen := params;
      Ok "{\"schema\": 1}\n");
  let r = Rr_live.handle "/explain?net=Level3&src=New+York&dst=Boston" in
  Alcotest.(check int) "ok status" 200 r.Rr_live.status;
  Alcotest.(check string) "json content type" "application/json"
    r.Rr_live.content_type;
  Alcotest.(check string) "provider body verbatim" "{\"schema\": 1}\n"
    r.Rr_live.body;
  Alcotest.(check (list (pair string string))) "decoded params delivered"
    [ ("net", "Level3"); ("src", "New York"); ("dst", "Boston") ]
    !seen;
  (* A provider Error is the client's fault: 400 with the message. *)
  Rr_live.set_explain_provider (fun _ -> Error "unknown network \"nope\"");
  let r = Rr_live.handle "/explain?net=nope" in
  Alcotest.(check int) "error status" 400 r.Rr_live.status;
  Alcotest.(check string) "error body names the cause"
    "unknown network \"nope\""
    (json_str "error" (json_of r.Rr_live.body));
  (* A raising provider is a server error, mirroring /stats. *)
  Rr_live.set_explain_provider (fun _ -> failwith "cache exploded");
  let r = Rr_live.handle "/explain?net=Level3" in
  Alcotest.(check int) "crash status" 500 r.Rr_live.status;
  Alcotest.(check bool) "crash body names the exception" true
    (json_str "error" (json_of r.Rr_live.body) <> "")

(* The real provider refuses a continental size outside the supported
   range before building anything: a client error naming the range. *)
let test_explain_oversized_continental () =
  Fun.protect ~finally:(fun () ->
      Rr_live.set_explain_provider (fun _ -> Error "no explain provider"))
  @@ fun () ->
  let ctx = Rr_engine.Context.create () in
  Rr_live.set_explain_provider (Rr_explain.of_query ctx);
  let r = Rr_live.handle "/explain?net=continental-50000000&src=0&dst=1" in
  Alcotest.(check int) "oversized continental is a 400" 400 r.Rr_live.status;
  Alcotest.(check string) "error names the supported range"
    "unsupported size continental-50000000 (continental-<pops> takes 1..50000)"
    (json_str "error" (json_of r.Rr_live.body));
  Alcotest.(check int) "no environment built" 0
    (Rr_engine.Context.env_cache_length ctx)

(* --- the listener --- *)

let test_listener_endpoints () =
  with_server @@ fun port ->
  Alcotest.(check bool) "running" true (Rr_live.running ());
  Alcotest.(check (option int)) "port" (Some port) (Rr_live.port ());
  (* /metrics: valid Prometheus exposition — every line is a comment or
     a riskroute_* sample. *)
  let status, headers, body = http_get port "/metrics" in
  Alcotest.(check int) "metrics status" 200 status;
  Alcotest.(check string) "metrics content type"
    "text/plain; version=0.0.4; charset=utf-8"
    (header "content-type" headers);
  Alcotest.(check string) "content length matches body"
    (string_of_int (String.length body))
    (header "content-length" headers);
  List.iter
    (fun line ->
      if
        String.length line > 0
        && line.[0] <> '#'
        && not
             (String.length line > 10 && String.sub line 0 10 = "riskroute_")
      then Alcotest.failf "unexpected metrics line: %S" line)
    (String.split_on_char '\n' body);
  Alcotest.(check bool) "serves the live request counter" true
    (List.exists
       (fun l ->
         String.length l > 23 && String.sub l 0 23 = "riskroute_live_requests")
       (String.split_on_char '\n' body));
  (* /healthz: fresh process, nothing stalled. *)
  let status, _, body = http_get port "/healthz" in
  Alcotest.(check int) "healthz status" 200 status;
  let j = json_of body in
  Alcotest.(check string) "healthz verdict" "ok" (json_str "status" j);
  Alcotest.(check int) "healthz pid" (Unix.getpid ()) (json_int "pid" j);
  (* Build identity: the git revision (or "unknown" outside a repo)
     and the schema-version table ride on every health probe. *)
  Alcotest.(check bool) "healthz git_rev present" true
    (json_str "git_rev" j <> "");
  let schemas =
    match Rr_perf.Json.member "schemas" j with
    | Some s -> s
    | None -> Alcotest.fail "healthz has no schemas object"
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "schemas.%s is a positive version" name)
        true
        (match
           Option.bind (Rr_perf.Json.member name schemas) Rr_perf.Json.to_int
         with
        | Some v -> v >= 1
        | None -> false))
    [ "flight"; "series"; "telemetry" ];
  (* /stats: golden body through the provider. *)
  let golden = "{\"env\": {\"hits\": 0, \"misses\": 0}}\n" in
  Rr_live.set_stats_provider (fun () -> golden);
  let status, headers, body = http_get port "/stats" in
  Alcotest.(check int) "stats status" 200 status;
  Alcotest.(check string) "stats content type" "application/json"
    (header "content-type" headers);
  Alcotest.(check string) "stats golden body" golden body;
  (* /flight: parseable JSON with the documented shape. *)
  let status, _, body = http_get port "/flight" in
  Alcotest.(check int) "flight status" 200 status;
  let j = json_of body in
  Alcotest.(check int) "flight schema" 1 (json_int "schema" j);
  Alcotest.(check bool) "flight has events array" true
    (Option.bind (Rr_perf.Json.member "events" j) Rr_perf.Json.to_arr
    <> None);
  (* /series: parseable JSON with the sampler-ring shape (the sampler
     thread is not running here, so the ring is merely empty). *)
  let status, headers, body = http_get port "/series" in
  Alcotest.(check int) "series status" 200 status;
  Alcotest.(check string) "series content type" "application/json"
    (header "content-type" headers);
  let j = json_of body in
  Alcotest.(check int) "series schema" 1 (json_int "schema" j);
  Alcotest.(check bool) "series has samples array" true
    (Option.bind (Rr_perf.Json.member "samples" j) Rr_perf.Json.to_arr
    <> None);
  (* The index names every endpoint, including /series. *)
  let _, _, body = http_get port "/" in
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "index lists /series" true (contains "/series" body);
  Alcotest.(check bool) "index lists /explain" true
    (contains "/explain" body);
  (* Unknown path and non-GET method. *)
  let status, _, _ = http_get port "/nope" in
  Alcotest.(check int) "404 for unknown path" 404 status;
  let status, headers, _ =
    http_get ~request:(fun p -> "POST " ^ p ^ " HTTP/1.1\r\n\r\n") port "/"
  in
  Alcotest.(check int) "405 for POST" 405 status;
  Alcotest.(check string) "405 advertises the allowed method" "GET"
    (header "allow" headers)

let test_listener_single_instance () =
  with_server @@ fun _port ->
  match Rr_live.start ~port:0 () with
  | Ok p -> Alcotest.failf "second start succeeded on port %d" p
  | Error msg ->
    Alcotest.(check bool) "error names the running server" true
      (String.length msg > 0)

let test_listener_stop () =
  (match Rr_live.start ~port:0 () with
  | Error msg -> Alcotest.failf "start failed: %s" msg
  | Ok _ -> ());
  Rr_live.stop ();
  Rr_obs.set_enabled false;
  Alcotest.(check bool) "not running after stop" false (Rr_live.running ());
  Alcotest.(check (option int)) "no port after stop" None (Rr_live.port ());
  (* Idempotent. *)
  Rr_live.stop ()

(* A client that dribbles one byte a second and never ends its request
   line is cut off at the head deadline with a 400 counted in
   [live.errors]; a second client queued behind it gets its /healthz
   within the deadline plus 2 s, not when the slow client gives up. *)
let test_listener_slow_client () =
  with_server @@ fun port ->
  let errors = Rr_obs.Counter.make "live.errors" in
  let errors_before = Rr_obs.Counter.value errors in
  let slow_answer = ref "" in
  let dribble () =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
    @@ fun () ->
    Unix.connect sock
      (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
    (* Bytes go out at 0.5 s, 1.5 s, ... so none lands on the deadline
       itself; the client stops at the first sign of an answer, or after
       3x the deadline, long enough that a server without one would
       still be holding the thread when the queued request is timed. *)
    let rec go sent =
      match Unix.select [ sock ] [] [] (if sent = 0 then 0.5 else 1.0) with
      | [], _, _ ->
        if sent < 3 * int_of_float Rr_live.head_deadline then begin
          ignore (Unix.write_substring sock "G" 0 1);
          go (sent + 1)
        end
      | _ ->
        let chunk = Bytes.create 256 in
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        slow_answer := Bytes.sub_string chunk 0 n
    in
    go 0
  in
  let slow = Thread.create dribble () in
  let status, waited =
    Fun.protect ~finally:(fun () -> Thread.join slow) @@ fun () ->
    (* Let the server accept the slow client first. *)
    Thread.delay 0.2;
    let t0 = Unix.gettimeofday () in
    let status, _, _ = http_get port "/healthz" in
    (status, Unix.gettimeofday () -. t0)
  in
  Alcotest.(check int) "queued healthz status" 200 status;
  Alcotest.(check bool)
    (Printf.sprintf "healthz waited %.1f s" waited)
    true
    (waited <= Rr_live.head_deadline +. 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "slow client got a 400 (%S)" !slow_answer)
    true
    (String.starts_with ~prefix:"HTTP/1.1 400" !slow_answer);
  Alcotest.(check bool) "the cut-off is counted in live.errors" true
    (Rr_obs.Counter.value errors > errors_before)

(* --- the watchdog --- *)

let test_stall_deadline_validation () =
  Alcotest.check_raises "zero deadline rejected"
    (Invalid_argument "Rr_live.set_stall_deadline: need a positive deadline")
    (fun () -> Rr_live.set_stall_deadline 0.0);
  Alcotest.check_raises "negative deadline rejected"
    (Invalid_argument "Rr_live.set_stall_deadline: need a positive deadline")
    (fun () -> Rr_live.set_stall_deadline (-3.0))

(* Drive degraded -> recovered with the swappable clock: a span that
   stays open past the deadline flips the verdict and is named in the
   body; closing it recovers. *)
let test_watchdog_transitions () =
  with_telemetry @@ fun () ->
  let restore_deadline = Rr_live.stall_deadline () in
  Fun.protect ~finally:(fun () ->
      Rr_obs.Clock.reset_source ();
      Rr_live.set_stall_deadline restore_deadline)
  @@ fun () ->
  let t = ref (Rr_obs.Clock.monotonic ()) in
  Rr_obs.Clock.set_source (fun () -> !t);
  Rr_live.set_stall_deadline 5.0;
  Alcotest.(check (float 0.0)) "deadline readable" 5.0
    (Rr_live.stall_deadline ());
  Rr_obs.with_span "live.watchdog_probe" (fun () ->
      let healthy, body = Rr_live.healthz () in
      Alcotest.(check bool) "fresh span is healthy" true healthy;
      Alcotest.(check string) "fresh verdict" "ok"
        (json_str "status" (json_of body));
      (* Sit inside the span past the deadline. *)
      t := !t +. 10.0;
      let healthy, body = Rr_live.healthz () in
      Alcotest.(check bool) "stalled span degrades" false healthy;
      let j = json_of body in
      Alcotest.(check string) "degraded verdict" "degraded"
        (json_str "status" j);
      let stalled =
        match
          Option.bind (Rr_perf.Json.member "stalled" j) Rr_perf.Json.to_arr
        with
        | Some l -> l
        | None -> Alcotest.fail "no stalled array"
      in
      Alcotest.(check bool) "stalled names the span" true
        (List.exists
           (fun e ->
             Option.bind (Rr_perf.Json.member "name" e) Rr_perf.Json.to_str
             = Some "live.watchdog_probe")
           stalled);
      (* The degraded verdict rides out over HTTP as a 503. *)
      Alcotest.(check int) "healthz handler returns 503" 503
        (Rr_live.handle "/healthz").Rr_live.status);
  (* Span closed: recovered, even though the clock has not moved. *)
  let healthy, body = Rr_live.healthz () in
  Alcotest.(check bool) "closing the span recovers" true healthy;
  Alcotest.(check string) "recovered verdict" "ok"
    (json_str "status" (json_of body))

let () =
  Alcotest.run "live"
    [
      ( "routing",
        [
          Alcotest.test_case "path dispatch" `Quick test_handle_routing;
          Alcotest.test_case "render golden bytes" `Quick test_render_golden;
          Alcotest.test_case "stats provider hook" `Quick test_stats_provider;
          Alcotest.test_case "query decoding" `Quick test_parse_query;
          Alcotest.test_case "explain provider hook" `Quick
            test_explain_provider;
          Alcotest.test_case "explain rejects oversized continental" `Quick
            test_explain_oversized_continental;
        ] );
      ( "listener",
        [
          Alcotest.test_case "endpoints over a real socket" `Quick
            test_listener_endpoints;
          Alcotest.test_case "single instance" `Quick
            test_listener_single_instance;
          Alcotest.test_case "stop is clean and idempotent" `Quick
            test_listener_stop;
          Alcotest.test_case "slow client cut off at the head deadline"
            `Slow test_listener_slow_client;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "deadline validation" `Quick
            test_stall_deadline_validation;
          Alcotest.test_case "degraded and recovered transitions" `Quick
            test_watchdog_transitions;
        ] );
    ]
