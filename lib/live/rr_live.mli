(** Live observability plane: an in-process HTTP introspection endpoint.

    A tiny stdlib-only (Unix + threads) HTTP/1.1 server on a background
    thread, serving the {!Rr_obs} state of the {e running} process —
    everything the exit dumps produce, but while the work is still in
    flight:

    - [GET /metrics] — Prometheus exposition of the default registry
      (live domain-sharded counters, merged on read);
    - [GET /healthz] — process liveness plus a span-stall watchdog: any
      span open longer than the configured deadline flips the verdict to
      ["degraded"] (HTTP 503) and names the stalled spans;
    - [GET /stats] — the engine-context cache snapshot (env/tree LRU
      hits, misses, evictions, occupancy) as JSON, via the provider
      registered with {!set_stats_provider};
    - [GET /flight] — the {!Rr_obs.Flight} ring: the most recent engine
      events, merged across domains in deterministic order;
    - [GET /series] — the {!Rr_obs.Series} sampler ring: timestamped
      metric deltas over the run so far (empty unless [--series] /
      [RISKROUTE_SERIES] armed the sampler);
    - [GET /explain?net=..&src=..&dst=..] — a route-provenance record
      (per-arc Eq. 1 decomposition, baseline diff, cache provenance) via
      the provider registered with {!set_explain_provider}.

    Enabled with [--live PORT] on the CLI and bench harness, or
    [RISKROUTE_LIVE=PORT] in the environment (see
    {!autostart_from_env}). Starting the server turns {!Rr_obs}
    recording on — live metrics over a disabled registry would serve
    zeros. All handlers are read-only snapshots; program output and
    results are unchanged by serving. *)

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;  (** extra headers, e.g. [Allow] on 405 *)
  body : string;
}

val handle : string -> response
(** Route a request path to its response — the pure core of the server,
    exposed so tests can hit endpoints without a socket. Unknown paths
    get a 404; [/] returns a plain-text endpoint index. *)

val render : response -> string
(** The full HTTP/1.1 response bytes for a {!response}. *)

val set_stats_provider : (unit -> string) -> unit
(** Register the JSON body served on [/stats]. The CLI and bench wire
    this to [Rr_engine.Context.stats_json] of the shared context; the
    default body is a JSON error note. *)

val set_explain_provider :
  ((string * string) list -> (string, string) result) -> unit
(** Register the [/explain] handler. The provider receives the decoded
    query parameters (percent- and ['+']-decoding already applied, in
    request order) and returns the JSON body, or a client-error message
    rendered as a 400 JSON object. Exceptions become 500s. The CLI and
    bench wire this to [Rr_explain] over their shared context; the
    default provider returns an error note. *)

val parse_query : string -> (string * string) list
(** Decode an [application/x-www-form-urlencoded] query string (the part
    after ['?']). Exposed for tests. *)

val set_stall_deadline : float -> unit
(** Seconds an open span may run before [/healthz] reports the process
    degraded. Default 60; [RISKROUTE_STALL_DEADLINE] overrides it.
    Raises [Invalid_argument] unless positive. *)

val stall_deadline : unit -> float

val healthz : unit -> bool * string
(** The watchdog verdict right now: [(healthy, json_body)]. Uses
    {!Rr_obs.Clock.monotonic}, so tests drive transitions with the
    swappable clock. *)

val head_deadline : float
(** Seconds a client has to send its whole request head (5). Past it
    the server answers 400 and counts the request in [live.errors], so
    a slow client holds the single server thread no longer than this. *)

val start : ?addr:string -> port:int -> unit -> (int, string) result
(** Start the listener on [addr] (default ["127.0.0.1"]) and [port]
    ([0] picks an ephemeral port) and serve on a background thread.
    Returns the actually-bound port. Fails if already running or the
    port is taken. Enables {!Rr_obs} recording. *)

val port : unit -> int option
(** The bound port while running. *)

val running : unit -> bool

val stop : unit -> unit
(** Shut the listener down and join the server thread. Idempotent. *)

val autostart_from_env : unit -> unit
(** Start the server when [RISKROUTE_LIVE] is set to a port number; an
    invalid value or a failed bind warns through {!Rr_obs.Log} and the
    process carries on un-served. *)
