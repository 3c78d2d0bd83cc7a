(** The serving daemon: HTTP/1.1 front-end over {!Olar_serve.Pool}.

    The ROADMAP's online half is a long-lived process answering
    interactive mining queries; this module is its network front door.
    One listening TCP socket, one lightweight thread per accepted
    connection, one {b bounded admission queue} in the middle, and one
    {b drainer} thread behind it that streams each admitted request
    into the pool via {!Olar_serve.Pool.submit} — continuous per-domain
    dispatch, no batch materialization between admission and execution.
    Systhreads carry the blocking socket I/O (a blocked read releases
    the domain lock); the domains do the query work. Ticket records
    (one per in-flight query, carrying its mutex/condvar pair) are
    pooled and reused, so the steady-state serving path allocates no
    synchronization objects. The listen backlog is 64 and request bodies
    are capped at {!Http.parse_request}'s default (4 MiB; 413 above).

    {2 Endpoints}

    - [POST /query] — body is an {!Olar_replay.Record} query key
      ({!Olar_replay.Record.key_of_json_line}); the response is a JSON
      object carrying the result, its FNV-1a digest (hex), result size
      and service latency. A query whose execution fails (e.g. below
      the primary threshold) answers 422 with the error text — the same
      text the pool's [R_error] carries, so wire answers stay
      digest-comparable with serial runs.
    - [GET /metrics] — Prometheus text exposition of the engine's
      metrics registry (plus the server's own [olar_http_*] series,
      including the six [olar_http_phase_seconds{phase="..."}]
      histograms, the pool's dispatch-wait histogram
      [olar_pool_dispatch_wait_seconds], per-domain
      [olar_pool_domain_busy_seconds]/[olar_pool_domain_requests]
      gauges and per-shard [olar_pool_shard_depth{shard="..."}] depth
      gauges). When the engine has an obs context, an
      {!Olar_obs.Runtime_obs} eventring consumer additionally exports
      per-domain GC pause histograms
      [olar_gc_pause_seconds{domain="..."}] and collection counters
      [olar_gc_minor_total]/[olar_gc_major_total], polled by a
      dedicated systhread that doubles as the idle-time heartbeat for
      the sliding windows and sampled gauges.
    - [GET /healthz] — the {!Health} engine's verdict over the last
      minute of sliding-window telemetry, as JSON: the body is exactly
      the ["health"] section of [/statusz]
      ([{"state":..,"reasons":[..],"window_s":..,"queries":..,
      "executed":..,"shed":..,"http_5xx":..,"exec_p99_ms":..}],
      [exec_p99_ms] [null] while the window holds no execution):
      [200] with state ["ok"] or
      ["degraded"] (reasons listed, e.g. a shed rate over 1%), [503]
      with state ["unhealthy"] once a check crosses its hard limit —
      so load balancers pull the instance while operators read why.
      The same verdict is exported as the [olar_health_state] gauge
      (0/1/2).
    - [GET /statusz] — JSON debug state: build version, uptime, queue
      depth/peak/limit, request counters, per-domain utilization, a
      dispatch-wait histogram summary, per-shard submission-queue
      depths, the six phase-histogram summaries, a ["window"] section
      (per-second qps/shed/5xx rates and rolling p50/p90/p99 per phase
      over the last 60 s, from {!Olar_obs.Window}), a ["gc"] section
      (eventring pause count, clock-calibration state, windowed pause
      quantiles), a ["health"] section mirroring /healthz, and the
      last N requests over the [slow_s] threshold (a bounded ring,
      newest first) — each slow entry carrying [gc_pause_ms], the
      longest recorded GC pause overlapping its execute window ([null]
      when none did).
    - [HEAD] on any of the three read-only endpoints answers with the
      GET status and headers (including the GET body's
      [Content-Length]) and an empty body.

    {2 Request identity and phase attribution}

    Every parsed HTTP request gets a server-global id. For served
    queries the response carries it ([id]) and the wire latency splits
    into six phases — parse, queue, dispatch, execute, deliver, write —
    observed into labelled histograms; [total_s] in the response is the
    sum of the first five (the write phase cannot be inside the body
    that reports it). With [trace_sample = N] and tracing enabled,
    every Nth request additionally emits an [http.request] span with
    six [phase.*] children into the engine's trace sink, tagged with
    the request id, kind, HTTP status and executing domain.

    {2 Load shedding}

    Admission is refused with {b 429} when the queue holds
    [queue_depth] requests (the flood simply never reaches the pool:
    memory stays bounded by [queue_depth], not by offered load). A
    request that waited in the queue past its deadline
    ([deadline_s] after arrival) is dropped by the drainer with
    {b 503} before any query work is spent on it. Both sheds are
    counted ([olar_http_shed_queue_total],
    [olar_http_shed_deadline_total]).

    {2 Capture}

    With [record] set, every successfully served query appends one
    {!Olar_replay.Record} line to the file — the same jsonl the
    [--record] CLI flag writes — so production traffic replays through
    [olar replay] against the pre-serving lattice. Captured seq numbers
    are server-global in completion order (which, for a single
    sequential client, is submission order — the case replay verifies
    digest-exactly); queries that shed or
    error are not recorded (mirroring {!Olar_replay.Recorder}, which
    emits nothing for a query that raises).

    {2 Shutdown}

    {!stop} is graceful: the listening socket closes first (no new
    connections), new admissions are refused with 503, the drainer
    {b drains every already-admitted request} and their responses are
    written, then connections are closed and all threads joined. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] binds an ephemeral port — read it back with {!port} *)
  queue_depth : int;
      (** admission-queue bound; at capacity new queries shed with 429 *)
  deadline_s : float;
      (** per-request deadline from arrival; [0.] disables (default) *)
  record : string option;  (** append served queries to this jsonl file *)
  trace_sample : int;
      (** emit a per-request trace for every Nth query (request ids
          divisible by N); [0] disables sampling (default). Only
          effective when the engine's obs context has tracing on. *)
  slow_s : float;
      (** log requests whose wire total reaches this many seconds to
          stderr and the /statusz ring ([>=], the {!Olar_replay.Recorder}
          slow-query convention — [0.] logs everything); [infinity]
          disables (default) *)
  slow_ring : int;
      (** capacity of the /statusz slow-request ring (default 64);
          [0] disables the ring while keeping the stderr log and the
          over-threshold count *)
  slo_p99_s : float;
      (** latency SLO for the health engine: the windowed execute-phase
          p99 crossing this marks the server degraded, crossing four
          times it marks it unhealthy; [0.] disables the latency check
          (default) *)
}

val default_config : config

type t

(** [create engine] binds, listens, and starts serving in background
    threads; returns once the socket is live (so {!port} is valid
    immediately). [domains]/[budget_bytes] size the underlying
    {!Olar_serve.Pool} (the pool is owned — {!stop} shuts it down).
    Raises [Invalid_argument] as {!Olar_serve.Pool.create} does, and
    [Unix.Unix_error] if the bind fails. *)
val create :
  ?config:config -> ?domains:int -> ?budget_bytes:int -> Olar_core.Engine.t -> t

(** [port t] is the bound TCP port (the actual one when [config.port]
    was [0]). *)
val port : t -> int

(** [url t] is ["http://host:port"]. *)
val url : t -> string

val pool : t -> Olar_serve.Pool.t

(** [stop t] performs the graceful shutdown described above. Idempotent;
    blocks until every thread is joined and the record file (if any) is
    closed. *)
val stop : t -> unit

(** [with_server engine f] is [f server] with a guaranteed {!stop}. *)
val with_server :
  ?config:config ->
  ?domains:int ->
  ?budget_bytes:int ->
  Olar_core.Engine.t ->
  (t -> 'a) ->
  'a
