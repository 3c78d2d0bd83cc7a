open Olar_data
module Pool = Olar_serve.Pool
module Record = Olar_replay.Record
module Replay = Olar_replay.Replay
module Recorder = Olar_replay.Recorder
module Fnv = Olar_replay.Fnv
module Jsonx = Olar_obs.Jsonx
module Metrics = Olar_obs.Metrics
module Exposition = Olar_obs.Exposition
module Obs = Olar_obs.Obs
module Engine = Olar_core.Engine
module Rule = Olar_core.Rule
module Timer = Olar_util.Timer
module Counter = Timer.Counter
module Window = Olar_obs.Window
module Runtime_obs = Olar_obs.Runtime_obs

type config = {
  host : string;
  port : int;
  queue_depth : int;
  deadline_s : float;
  record : string option;
  trace_sample : int;
  slow_s : float;
  slow_ring : int;
  slo_p99_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    queue_depth = 256;
    deadline_s = 0.0;
    record = None;
    trace_sample = 0;
    slow_s = infinity;
    slow_ring = 64;
    slo_p99_s = 0.0;
  }

let listen_backlog = 64

(* The six attribution phases of one wire request, in wall-clock order.
   parse:    HTTP parse + query-key decode on the connection thread
   queue:    arrival to the drainer claiming this ticket (per-request —
             the drainer pops one ticket at a time, so queue wait is
             each request's own, not its round's)
   dispatch: claim to a pool domain starting execution (submission-shard
             wait + wakeup; the pool histograms the same window as
             olar_pool_dispatch_wait_seconds)
   execute:  the pool's claim-to-completion service time
   deliver:  execution done to the connection thread waking
   write:    rendering + writing the response bytes *)
let phase_names = [| "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" |]

let num_phases = Array.length phase_names

(* One admitted query. The connection thread parks on [cv] until the
   drainer (deadline drop) or a pool domain (completion) writes the
   outcome. Tickets are pooled: every field is mutable so a retired
   ticket — mutex, condvar and all — is reset and reused for a later
   request instead of allocated fresh on the hot path. *)
type outcome =
  | Pending
  | Served of Pool.response * float
  | Shed of int * string  (* HTTP status, message *)

type ticket = {
  mutable id : int; (* server-global request id, from the HTTP front door *)
  mutable key : Record.t;
  mutable req : Pool.request;
  mutable t0 : float; (* monotonic at parse start on the connection thread *)
  mutable parse_s : float; (* HTTP parse + key decode *)
  mutable arrival : float;
  mutable deadline : float;  (* [infinity] when deadlines are off *)
  tmu : Mutex.t;
  tcv : Condition.t;
  mutable outcome : outcome;
  (* phase stamps, written by the drainer / executing domain *)
  mutable t_claim : float; (* drainer claimed the ticket from the queue *)
  mutable t_exec_start : float; (* a pool domain began executing *)
  mutable t_exec_done : float; (* execution finished *)
  mutable exec_domain : int; (* Domain.self of the executing domain *)
}

(* One entry of the slow-request ring: everything /statusz needs to
   show about a request that crossed the --slow-ms threshold. *)
type slow_entry = {
  s_id : int;
  s_kind : string;
  s_status : int;
  s_domain : int;
  s_total_s : float;
  s_phases : float array; (* length num_phases, seconds *)
  s_uptime_s : float; (* server uptime at completion *)
  (* absolute execute window, for lazy GC-pause tainting at /statusz
     render time (the eventring poller may record a pause after this
     entry is pushed; matching at read time misses nothing) *)
  s_exec_t0 : float;
  s_exec_t1 : float;
}

type t = {
  cfg : config;
  pool : Pool.t;
  lsock : Unix.file_descr;
  bound_port : int;
  registry : Metrics.t;
  obs_ctx : Obs.ctx option;
  (* instruments *)
  c_conns : Counter.t;
  c_requests : Counter.t;
  c_queries : Counter.t;
  c_bad : Counter.t;
  c_shed_queue : Counter.t;
  c_shed_deadline : Counter.t;
  c_5xx : Counter.t;
  g_queue_depth : Metrics.Gauge.t;
  g_queue_peak : Metrics.Gauge.t;
  g_health : Metrics.Gauge.t;
  h_request : Metrics.Histogram.t;
  h_phase : Metrics.Histogram.t array; (* indexed by phase, length num_phases *)
  (* sliding-window views over the cumulative instruments above: the
     health engine and /statusz's "window" section read rates and
     rolling quantiles from these; the ticker thread advances the
     boundaries *)
  win : Window.t;
  w_queries : Window.counter_view;
  w_shed_queue : Window.counter_view;
  w_shed_deadline : Window.counter_view;
  w_5xx : Window.counter_view;
  w_request : Window.histogram_view;
  w_phase : Window.histogram_view array;
  w_gc : Window.histogram_view option;
  thresholds : Health.thresholds;
  runtime_obs : Runtime_obs.t option;
  (* request identity and tracing *)
  req_seq : int Atomic.t;
  started_s : float; (* monotonic at create; anchors /statusz uptime *)
  (* slow-request ring (newest overwrite oldest) *)
  slow_mu : Mutex.t;
  slow_ring : slow_entry option array;
  mutable slow_seen : int; (* total requests over the threshold *)
  (* drainer-side runtime-gauge sampling throttle *)
  mutable last_sample_s : float;
  (* admission queue *)
  qmu : Mutex.t;
  qcv : Condition.t;
  queue : ticket Queue.t;
  mutable stopping : bool;
  mutable stopped : bool;
  (* capture *)
  rec_oc : out_channel option;
  rec_mu : Mutex.t;
  mutable rec_seq : int;
  (* ticket freelist (bounded): retired tickets come back here *)
  free_mu : Mutex.t;
  mutable free_tickets : ticket list;
  mutable free_count : int;
  (* threads *)
  mutable accept_thread : Thread.t option;
  mutable drainer_thread : Thread.t option;
  mutable ticker_thread : Thread.t option;
  conns_mu : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
}

(* ------------------------------------------------------------------ *)
(* Response payloads                                                  *)
(* ------------------------------------------------------------------ *)

let itemset_json x =
  Jsonx.Arr (List.map (fun i -> Jsonx.Int i) (Itemset.to_list x))

let result_fields = function
  | Pool.R_items entries ->
    [
      ( "items",
        Jsonx.Arr
          (Array.to_list entries
          |> List.map (fun (x, c) ->
                 Jsonx.Obj
                   [ ("itemset", itemset_json x); ("count", Jsonx.Int c) ])) );
    ]
  | Pool.R_count c -> [ ("count", Jsonx.Int c) ]
  | Pool.R_rules rules ->
    [
      ( "rules",
        Jsonx.Arr
          (List.map
             (fun (r : Rule.t) ->
               Jsonx.Obj
                 [
                   ("antecedent", itemset_json r.antecedent);
                   ("consequent", itemset_json r.consequent);
                   ("support_count", Jsonx.Int r.support_count);
                   ("antecedent_count", Jsonx.Int r.antecedent_count);
                 ])
             rules) );
    ]
  | Pool.R_level level ->
    [
      ( "level",
        match level with Some f -> Jsonx.Float f | None -> Jsonx.Null );
    ]
  | Pool.R_entries entries ->
    [
      ( "entries",
        Jsonx.Arr
          (List.map
             (fun (x, s) ->
               Jsonx.Obj
                 [ ("itemset", itemset_json x); ("support", Jsonx.Float s) ])
             entries) );
    ]
  | Pool.R_promoted { promoted; db_size } ->
    [
      ("promoted", Jsonx.Arr (List.map itemset_json promoted));
      ("db_size", Jsonx.Int db_size);
    ]
  | Pool.R_error _ -> []

let json_headers = [ ("content-type", "application/json") ]

let json_response ?(headers = json_headers) ~status fields =
  Http.render_response ~headers ~status
    (Jsonx.to_string (Jsonx.Obj fields) ^ "\n")

let error_response ~status msg =
  json_response ~status
    [
      ( "status",
        Jsonx.Str
          (match status with
          | 429 | 503 -> "shed"
          | 404 -> "not_found"
          | 422 -> "error"
          | _ -> "bad_request") );
      ("error", Jsonx.Str msg);
    ]

(* [lat_s] stays the pool's claim-to-completion service time (what
   capture/replay compares); [total_s] is the wire-side account —
   parse + queue + dispatch + execute + deliver. The write phase can't
   be in the body that reports it; it lands in the phase histogram
   after the bytes are out. *)
let ok_response resp ~id ~latency_s ~total_s =
  let digest =
    match Replay.digest_response resp with
    | Some d -> d
    | None -> Fnv.empty (* unreachable: R_error never takes this path *)
  in
  json_response ~status:200
    ([
       ("status", Jsonx.Str "ok");
       ("id", Jsonx.Int id);
       ("digest", Jsonx.Str (Fnv.to_hex digest));
       ("size", Jsonx.Int (Recorder.result_size resp));
       ("lat_s", Jsonx.Float latency_s);
       ("total_s", Jsonx.Float total_s);
     ]
    @ result_fields resp)

(* ------------------------------------------------------------------ *)
(* Admission and the drainer                                          *)
(* ------------------------------------------------------------------ *)

let resolve ticket outcome =
  Mutex.lock ticket.tmu;
  ticket.outcome <- outcome;
  Condition.signal ticket.tcv;
  Mutex.unlock ticket.tmu

let await ticket =
  Mutex.lock ticket.tmu;
  while ticket.outcome = Pending do
    Condition.wait ticket.tcv ticket.tmu
  done;
  let o = ticket.outcome in
  Mutex.unlock ticket.tmu;
  o

(* Admit under the queue bound. 429 at capacity, 503 once shutdown has
   begun; on success the drainer is signalled. *)
let admit t ticket =
  Mutex.lock t.qmu;
  let verdict =
    if t.stopping then Error (503, "server is shutting down")
    else if Queue.length t.queue >= t.cfg.queue_depth then begin
      Counter.incr t.c_shed_queue;
      Error (429, "queue full")
    end
    else begin
      Queue.add ticket t.queue;
      let depth = Queue.length t.queue in
      Metrics.Gauge.set_int t.g_queue_depth depth;
      (* CAS-max: a read-then-set here raced between admission threads
         and could lose the higher peak *)
      Metrics.Gauge.max_int t.g_queue_peak depth;
      Condition.signal t.qcv;
      Ok ()
    end
  in
  Mutex.unlock t.qmu;
  verdict

(* Append one captured record. Runs on the executing domain, before the
   ticket is resolved (a resolved ticket may be reused immediately), so
   capture lands in completion order: for a single client — one
   outstanding request at a time — that is exactly submission order,
   preserving the digest-exact replay property of single-client
   captures. Mirrors Recorder: a query that errored emits nothing and
   does not advance the sequence. *)
let record_one t (ticket : ticket) resp (c : Pool.completion) =
  match t.rec_oc with
  | None -> ()
  | Some oc -> (
    match Replay.digest_response resp with
    | None -> ()
    | Some digest ->
      Mutex.lock t.rec_mu;
      let r =
        {
          ticket.key with
          Record.seq = t.rec_seq;
          cache = Record.Passthrough;
          digest;
          result_size = Recorder.result_size resp;
          latency_s = c.Pool.latency_s;
          vertices = 0;
          heap_pops = 0;
          (* the executing domain's adopted view, never the
             coordinator's: with non-blocking appends,
             [Pool.engine t.pool] may already be a generation ahead of
             the snapshot this response was computed on *)
          epoch = c.Pool.epoch;
        }
      in
      t.rec_seq <- t.rec_seq + 1;
      output_string oc (Record.to_json_line r);
      output_char oc '\n';
      flush oc;
      Mutex.unlock t.rec_mu)

(* Dispatch one claimed ticket: drop it if it already missed its
   deadline (the 503 shed — no query work is spent on a request nobody
   is waiting for), otherwise hand it straight to the pool's
   submission shards. No batch is materialized anywhere: the
   completion callback stamps the execution window on the executing
   domain and unblocks the one connection thread waiting on this
   ticket. *)
let dispatch_one t ticket =
  let now = Timer.monotonic_s () in
  if now > ticket.deadline then begin
    Counter.incr t.c_shed_deadline;
    resolve ticket (Shed (503, "deadline exceeded"))
  end
  else begin
    ticket.t_claim <- now;
    Pool.submit t.pool ticket.req (fun resp c ->
        let dt = c.Pool.latency_s in
        let done_s = Timer.monotonic_s () in
        ticket.t_exec_done <- done_s;
        ticket.t_exec_start <- done_s -. dt;
        ticket.exec_domain <- (Domain.self () :> int);
        (try record_one t ticket resp c
         with e ->
           Printf.eprintf "olar-serve: capture write failed: %s\n%!"
             (Printexc.to_string e));
        resolve ticket (Served (resp, dt)))
  end

(* Refresh per-domain utilization and per-shard depth gauges from the
   pool's accounting. *)
let refresh_domain_gauges t =
  Array.iteri
    (fun k (st : Pool.domain_stat) ->
      let labels = [ ("domain", string_of_int k) ] in
      Metrics.Gauge.set
        (Metrics.gauge t.registry ~labels
           ~help:"Seconds each pool slot spent executing requests"
           "olar_pool_domain_busy_seconds")
        st.Pool.busy_s;
      Metrics.Gauge.set_int
        (Metrics.gauge t.registry ~labels
           ~help:"Requests each pool slot has executed"
           "olar_pool_domain_requests")
        st.Pool.requests)
    (Pool.domain_stats t.pool);
  Array.iteri
    (fun k depth ->
      Metrics.Gauge.set_int
        (Metrics.gauge t.registry
           ~labels:[ ("shard", string_of_int k) ]
           ~help:"Requests queued in each pool submission shard"
           "olar_pool_shard_depth")
        depth)
    (Pool.shard_depths t.pool)

(* ------------------------------------------------------------------ *)
(* Windowed health                                                    *)
(* ------------------------------------------------------------------ *)

(* Fold the sliding windows into one reading for the health engine.
   Ticks first so a reading taken after an idle stretch reflects the
   idle window, not the last busy one. *)
let health_reading t =
  Window.tick t.win;
  {
    (* [executed] comes from the request histogram — observed only on
       Served outcomes — not from [c_queries], which stamps arrivals at
       intake: health rates divide by executed + shed, both counted at
       decision time, so a wedged server shedding its backlog with no
       fresh intake still trips the [min_events] floor. *)
    Health.window_s = Window.covered_s t.win;
    executed = (Window.histogram_window t.w_request).Window.count;
    shed =
      Window.counter_delta t.w_shed_queue
      + Window.counter_delta t.w_shed_deadline;
    errors_5xx = Window.counter_delta t.w_5xx;
    exec_p99_s = (Window.histogram_window t.w_phase.(3)).Window.p99;
  }

(* Evaluate and publish: the [olar_health_state] gauge follows every
   evaluation, whether a probe or the ticker asked. *)
let health_state t =
  let reading = health_reading t in
  let state = Health.evaluate t.thresholds reading in
  Metrics.Gauge.set_int t.g_health (Health.state_value state);
  (state, reading)

(* Keep runtime/domain gauges fresh and merge buffered trace shards
   even when nobody scrapes /metrics: called from the drainer between
   dispatches and from the ticker thread when the drainer is parked,
   at most once a second. [last_sample_s] is a benign float race
   between those two writers — worst case one extra sample. *)
let sample_runtime t =
  let now = Timer.monotonic_s () in
  if now -. t.last_sample_s >= 1.0 then begin
    t.last_sample_s <- now;
    Option.iter Obs.update_runtime_gauges t.obs_ctx;
    refresh_domain_gauges t;
    ignore (health_state t);
    Option.iter Obs.flush t.obs_ctx
  end

(* The GC-observer systhread: the eventring consumer's poll loop, the
   window ticker, and the idle-time heartbeat in one. The drainer only
   samples while dispatching (it parks on the queue condvar when
   idle), so without this thread an idle server's windows and gauges
   would freeze at the last request. Recalibrates the eventring clock
   offset about once a minute against gettimeofday drift. *)
let ticker_loop t =
  let rec go n =
    if not t.stopping then begin
      Thread.delay 0.05;
      Window.tick t.win;
      (match t.runtime_obs with
      | None -> ()
      | Some ro ->
        (try ignore (Runtime_obs.poll ro)
         with _ -> () (* a torn ring must not kill the heartbeat *));
        if n mod 1200 = 0 then Runtime_obs.calibrate ro);
      sample_runtime t;
      go (n + 1)
    end
  in
  go 1

(* The drainer is a thin submit loop: pop one ticket, stamp its claim
   time, submit, repeat. The pool's bounded shards carry the
   in-flight window; when they are full, [Pool.submit] executes one
   queued request inline on this thread — backpressure that keeps the
   admission queue (and its 429 bound) the only unbounded-offered-load
   buffer in the process. *)
let drainer_loop t =
  let rec go () =
    Mutex.lock t.qmu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcv t.qmu
    done;
    if Queue.is_empty t.queue then begin
      (* stopping with nothing queued: wait out what is already in the
         shards, then exit — every admitted request has delivered *)
      Mutex.unlock t.qmu;
      Pool.drain t.pool
    end
    else begin
      let ticket = Queue.pop t.queue in
      Metrics.Gauge.set_int t.g_queue_depth (Queue.length t.queue);
      Mutex.unlock t.qmu;
      dispatch_one t ticket;
      sample_runtime t;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Phase accounting, slow log, sampled traces                         *)
(* ------------------------------------------------------------------ *)

let clamp0 x = Float.max 0.0 x

(* Per-phase durations for one served ticket, indexed as
   [phase_names]. The write slot stays 0 here; the connection thread
   fills it after the response bytes are out. *)
let phase_durations ticket ~t_awake =
  let p = Array.make num_phases 0.0 in
  p.(0) <- clamp0 ticket.parse_s;
  p.(1) <- clamp0 (ticket.t_claim -. ticket.arrival);
  p.(2) <- clamp0 (ticket.t_exec_start -. ticket.t_claim);
  p.(3) <- clamp0 (ticket.t_exec_done -. ticket.t_exec_start);
  p.(4) <- clamp0 (t_awake -. ticket.t_exec_done);
  p

let push_slow t entry =
  Mutex.lock t.slow_mu;
  let cap = Array.length t.slow_ring in
  if cap > 0 then t.slow_ring.(t.slow_seen mod cap) <- Some entry;
  t.slow_seen <- t.slow_seen + 1;
  Mutex.unlock t.slow_mu;
  let ms i = entry.s_phases.(i) *. 1e3 in
  Printf.eprintf
    "olar-serve: slow request id=%d kind=%s status=%d domain=%d total=%.1fms \
     (parse=%.1f queue=%.1f dispatch=%.1f execute=%.1f deliver=%.1f \
     write=%.1f)\n\
     %!"
    entry.s_id entry.s_kind entry.s_status entry.s_domain
    (entry.s_total_s *. 1e3)
    (ms 0) (ms 1) (ms 2) (ms 3) (ms 4) (ms 5)

(* Emit one sampled per-request trace: six phase children (child-first)
   under an [http.request] root spanning the whole wire latency. The
   connection thread never touches the stack tracer — domain 0's stack
   belongs to the drainer — so the spans are injected prebuilt into the
   calling thread's shard. *)
let inject_request_trace t ticket ~status ~phases ~total_s =
  match Option.bind t.obs_ctx Obs.tracing with
  | None -> ()
  | Some sh ->
    let root = Olar_obs.Trace.Sharded.alloc_id sh in
    let start = ref ticket.t0 in
    Array.iteri
      (fun i name ->
        ignore
          (Olar_obs.Trace.Sharded.inject sh ~parent:root ~depth:1
             ~name:("phase." ^ name) ~start_s:!start ~duration_s:phases.(i) []);
        start := !start +. phases.(i))
      phase_names;
    ignore
      (Olar_obs.Trace.Sharded.inject sh ~id:root ~depth:0 ~name:"http.request"
         ~start_s:ticket.t0 ~duration_s:total_s
         [
           ("request", Olar_obs.Trace.Int ticket.id);
           ("kind", Olar_obs.Trace.Str (Record.kind_to_string ticket.key.Record.kind));
           ("status", Olar_obs.Trace.Int status);
           ("exec_domain", Olar_obs.Trace.Int ticket.exec_domain);
         ])

(* After the response bytes are out: close the books on one served
   query — write-phase histogram, sampled trace, slow-request log. *)
let finish_query t ticket ~status ~sampled ~phases ~write_s =
  let write_s = clamp0 write_s in
  phases.(5) <- write_s;
  Metrics.Histogram.observe t.h_phase.(5) write_s;
  let total_s = Array.fold_left ( +. ) 0.0 phases in
  if sampled then inject_request_trace t ticket ~status ~phases ~total_s;
  if total_s >= t.cfg.slow_s then
    push_slow t
      {
        s_id = ticket.id;
        s_kind = Record.kind_to_string ticket.key.Record.kind;
        s_status = status;
        s_domain = ticket.exec_domain;
        s_total_s = total_s;
        s_phases = phases;
        s_uptime_s = clamp0 (Timer.monotonic_s () -. t.started_s);
        s_exec_t0 = ticket.t_exec_start;
        s_exec_t1 = ticket.t_exec_done;
      }

(* ------------------------------------------------------------------ *)
(* /statusz                                                           *)
(* ------------------------------------------------------------------ *)

(* The count/p50/p90/p99 summary every /statusz histogram renders in,
   cumulative ([extra] = the time sum) or windowed ([extra] = the
   event rate). Quantiles are seconds, rendered as microseconds. *)
let summary_json ~count extra ~p50 ~p90 ~p99 =
  let us x = Jsonx.Float (if Float.is_finite x then x *. 1e6 else 0.0) in
  Jsonx.Obj
    ((("count", Jsonx.Int count) :: extra)
    @ [ ("p50_us", us p50); ("p90_us", us p90); ("p99_us", us p99) ])

let hist_json h =
  let q = Metrics.Histogram.quantile h in
  summary_json
    ~count:(Metrics.Histogram.count h)
    [ ("sum_s", Jsonx.Float (Metrics.Histogram.sum h)) ]
    ~p50:(q 0.5) ~p90:(q 0.9) ~p99:(q 0.99)

let hist_window_json (w : Window.hist_window) =
  summary_json ~count:w.count
    [ ("rate", Jsonx.Float w.rate) ]
    ~p50:w.p50 ~p90:w.p90 ~p99:w.p99

(* Phase-histogram summaries: a Jsonx-parseable view of the six
   olar_http_phase_seconds series, so tooling (the bench harness) can
   read phase latencies without parsing Prometheus text. *)
let phases_json t =
  Jsonx.Obj
    (Array.to_list
       (Array.mapi (fun i name -> (name, hist_json t.h_phase.(i))) phase_names))

(* The rolling view: per-second rates and windowed quantiles over the
   last window span, where everything above is process-cumulative. *)
let window_json t =
  Window.tick t.win;
  Jsonx.Obj
    [
      ("span_s", Jsonx.Float (Window.span_s t.win));
      ("covered_s", Jsonx.Float (Window.covered_s t.win));
      ("qps", Jsonx.Float (Window.counter_rate t.w_queries));
      ("queries", Jsonx.Int (Window.counter_delta t.w_queries));
      (* decided-to-completion in the window — what health grades
         against, where [queries] above is stamped at intake *)
      ("executed", Jsonx.Int (Window.histogram_window t.w_request).Window.count);
      ( "shed",
        Jsonx.Int
          (Window.counter_delta t.w_shed_queue
          + Window.counter_delta t.w_shed_deadline) );
      ("http_5xx", Jsonx.Int (Window.counter_delta t.w_5xx));
      ("request", hist_window_json (Window.histogram_window t.w_request));
      ( "phases",
        Jsonx.Obj
          (Array.to_list
             (Array.mapi
                (fun i name ->
                  (name, hist_window_json (Window.histogram_window t.w_phase.(i))))
                phase_names)) );
    ]

let gc_json t =
  match (t.runtime_obs, t.w_gc) with
  | Some ro, Some wg ->
    Jsonx.Obj
      [
        ("pauses", Jsonx.Int (Runtime_obs.pause_count ro));
        ("calibrated", Jsonx.Bool (Runtime_obs.calibrated ro));
        ("window", hist_window_json (Window.histogram_window wg));
      ]
  | _ -> Jsonx.Null

(* The /healthz body and the /statusz "health" section. *)
let health_json (state, reading) =
  Jsonx.Obj
    [
      ("state", Jsonx.Str (Health.state_name state));
      ( "reasons",
        Jsonx.Arr (List.map (fun r -> Jsonx.Str r) (Health.reasons state)) );
      ("window_s", Jsonx.Float reading.Health.window_s);
      ("queries", Jsonx.Int (Health.arrivals reading));
      ("executed", Jsonx.Int reading.Health.executed);
      ("shed", Jsonx.Int reading.Health.shed);
      ("http_5xx", Jsonx.Int reading.Health.errors_5xx);
      ( "exec_p99_ms",
        let p = reading.Health.exec_p99_s in
        if Float.is_finite p then Jsonx.Float (p *. 1e3) else Jsonx.Null );
    ]

(* [gc_pause_s] is the tainting verdict: the longest recorded GC pause
   overlapping this entry's execute window, resolved lazily at render
   time so pauses polled after the entry was pushed still count. *)
let slow_entry_json ?gc_pause_s e =
  Jsonx.Obj
    [
      ("id", Jsonx.Int e.s_id);
      ("kind", Jsonx.Str e.s_kind);
      ("status", Jsonx.Int e.s_status);
      ("domain", Jsonx.Int e.s_domain);
      ("total_ms", Jsonx.Float (e.s_total_s *. 1e3));
      ( "phases_ms",
        Jsonx.Obj
          (Array.to_list
             (Array.mapi
                (fun i name -> (name, Jsonx.Float (e.s_phases.(i) *. 1e3)))
                phase_names)) );
      ( "gc_pause_ms",
        match gc_pause_s with
        | Some s -> Jsonx.Float (s *. 1e3)
        | None -> Jsonx.Null );
      ("uptime_s", Jsonx.Float e.s_uptime_s);
    ]

let taint_slow t e =
  match t.runtime_obs with
  | None -> None
  | Some ro ->
    Runtime_obs.pause_overlapping ro ~t0:e.s_exec_t0 ~t1:e.s_exec_t1 ()

(* Snapshot the slow ring, newest first. *)
let slow_snapshot t =
  Mutex.lock t.slow_mu;
  let seen = t.slow_seen in
  let cap = Array.length t.slow_ring in
  let n = if cap = 0 then 0 else min seen cap in
  let entries =
    List.filter_map
      (fun k -> t.slow_ring.((seen - 1 - k) mod cap))
      (List.init n Fun.id)
  in
  Mutex.unlock t.slow_mu;
  (seen, entries)

let statusz_json t =
  let version =
    match Metrics.find t.registry "olar_build_info" with
    | Some { Metrics.labels; _ } -> (
      match List.assoc_opt "version" labels with
      | Some v -> v
      | None -> "unknown")
    | None -> "unknown"
  in
  let uptime = clamp0 (Timer.monotonic_s () -. t.started_s) in
  let pool_json =
    Jsonx.Arr
      (Array.to_list
         (Array.mapi
            (fun k (st : Pool.domain_stat) ->
              Jsonx.Obj
                [
                  ("domain", Jsonx.Int k);
                  ("requests", Jsonx.Int st.Pool.requests);
                  ("busy_s", Jsonx.Float st.Pool.busy_s);
                  ( "utilization",
                    Jsonx.Float
                      (if uptime > 0.0 then st.Pool.busy_s /. uptime else 0.0)
                  );
                ])
            (Pool.domain_stats t.pool)))
  in
  let shards_json =
    Jsonx.Arr
      (Array.to_list
         (Array.map (fun d -> Jsonx.Int d) (Pool.shard_depths t.pool)))
  in
  let seen, slow_entries = slow_snapshot t in
  Jsonx.Obj
    [
      ("version", Jsonx.Str version);
      ("uptime_s", Jsonx.Float uptime);
      ("domains", Jsonx.Int (Pool.domains t.pool));
      ( "queue",
        Jsonx.Obj
          [
            ( "depth",
              Jsonx.Int (int_of_float (Metrics.Gauge.value t.g_queue_depth)) );
            ( "peak",
              Jsonx.Int (int_of_float (Metrics.Gauge.value t.g_queue_peak)) );
            ("limit", Jsonx.Int t.cfg.queue_depth);
          ] );
      ( "counters",
        Jsonx.Obj
          [
            ("connections", Jsonx.Int (Counter.value t.c_conns));
            ("requests", Jsonx.Int (Counter.value t.c_requests));
            ("queries", Jsonx.Int (Counter.value t.c_queries));
            ("bad_requests", Jsonx.Int (Counter.value t.c_bad));
            ("shed_queue", Jsonx.Int (Counter.value t.c_shed_queue));
            ("shed_deadline", Jsonx.Int (Counter.value t.c_shed_deadline));
          ] );
      ("pool", pool_json);
      ("dispatch", hist_json (Pool.dispatch_wait t.pool));
      ("shards", shards_json);
      ("phases", phases_json t);
      ("window", window_json t);
      ("gc", gc_json t);
      ("health", health_json (health_state t));
      ( "slow",
        Jsonx.Obj
          [
            ( "threshold_ms",
              if Float.is_finite t.cfg.slow_s then
                Jsonx.Float (t.cfg.slow_s *. 1e3)
              else Jsonx.Null );
            ("capacity", Jsonx.Int (Array.length t.slow_ring));
            ("seen", Jsonx.Int seen);
            ( "entries",
              Jsonx.Arr
                (List.map
                   (fun e -> slow_entry_json ?gc_pause_s:(taint_slow t e) e)
                   slow_entries) );
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

(* The ticket freelist. A retired ticket keeps its last key/req until
   the next reuse overwrite — bounded retention, capped below — in
   exchange for never allocating a mutex/condvar pair on the serving
   hot path. *)
let free_cap = 64

let acquire_ticket t ~rid ~key ~req ~t0 ~parse_s ~arrival ~deadline =
  Mutex.lock t.free_mu;
  let recycled =
    match t.free_tickets with
    | tk :: rest ->
      t.free_tickets <- rest;
      t.free_count <- t.free_count - 1;
      Some tk
    | [] -> None
  in
  Mutex.unlock t.free_mu;
  match recycled with
  | Some tk ->
    tk.id <- rid;
    tk.key <- key;
    tk.req <- req;
    tk.t0 <- t0;
    tk.parse_s <- parse_s;
    tk.arrival <- arrival;
    tk.deadline <- deadline;
    tk.outcome <- Pending;
    tk.t_claim <- arrival;
    tk.t_exec_start <- arrival;
    tk.t_exec_done <- arrival;
    tk.exec_domain <- -1;
    tk
  | None ->
    {
      id = rid;
      key;
      req;
      t0;
      parse_s;
      arrival;
      deadline;
      tmu = Mutex.create ();
      tcv = Condition.create ();
      outcome = Pending;
      t_claim = arrival;
      t_exec_start = arrival;
      t_exec_done = arrival;
      exec_domain = -1;
    }

(* Only after the connection thread is completely done with the ticket
   — the response is written and the phase books are closed — may it go
   back on the freelist; the pool side never touches a ticket after
   [resolve]. *)
let release_ticket t tk =
  Mutex.lock t.free_mu;
  if t.free_count < free_cap then begin
    t.free_tickets <- tk :: t.free_tickets;
    t.free_count <- t.free_count + 1
  end;
  Mutex.unlock t.free_mu

(* [handle_query] returns the response string plus an optional
   post-write hook: phase accounting can only complete once the write
   phase is measured, which happens on the connection thread after
   [send]. *)
let handle_query t ~rid ~t0 body =
  let fail e =
    Counter.incr t.c_bad;
    (error_response ~status:400 e, None)
  in
  match Record.key_of_json_line body with
  | Error e -> fail ("invalid query key: " ^ e)
  | Ok key -> (
    match Replay.request_of_record key with
    | Error e -> fail ("incomplete query key: " ^ e)
    | Ok req ->
      Counter.incr t.c_queries;
      let arrival = Timer.monotonic_s () in
      let sampled =
        t.cfg.trace_sample > 0
        && Option.bind t.obs_ctx Obs.tracing <> None
        && rid mod t.cfg.trace_sample = 0
      in
      let ticket =
        acquire_ticket t ~rid ~key ~req ~t0 ~parse_s:(arrival -. t0) ~arrival
          ~deadline:
            (if t.cfg.deadline_s > 0.0 then arrival +. t.cfg.deadline_s
             else infinity)
      in
      (match admit t ticket with
      | Error (status, msg) ->
        if status >= 500 then Counter.incr t.c_5xx;
        release_ticket t ticket;
        (error_response ~status msg, None)
      | Ok () -> (
        match await ticket with
        | Pending -> assert false
        | Shed (status, msg) ->
          (* shed before execution: no phase account to close *)
          if status >= 500 then Counter.incr t.c_5xx;
          release_ticket t ticket;
          (error_response ~status msg, None)
        | Served (resp, latency_s) ->
          let t_awake = Timer.monotonic_s () in
          Metrics.Histogram.observe t.h_request (clamp0 (t_awake -. arrival));
          let phases = phase_durations ticket ~t_awake in
          for i = 0 to 4 do
            Metrics.Histogram.observe t.h_phase.(i) phases.(i)
          done;
          let total_s = Array.fold_left ( +. ) 0.0 phases in
          let status, body =
            match resp with
            | Pool.R_error msg -> (422, error_response ~status:422 msg)
            | resp -> (200, ok_response resp ~id:rid ~latency_s ~total_s)
          in
          ( body,
            Some
              (fun write_s ->
                finish_query t ticket ~status ~sampled ~phases ~write_s;
                release_ticket t ticket) ))))

(* /healthz: the health engine's verdict as JSON. Degraded stays 200 —
   naive probes keep routing while the reasons are on display —
   unhealthy answers 503 so load balancers pull the instance. *)
let healthz t =
  let ((state, _) as verdict) = health_state t in
  ( Health.status_code state,
    json_headers,
    Jsonx.to_string (health_json verdict) ^ "\n" )

(* The GET status/headers/body of each read-only endpoint, shared by
   HEAD (which renders the same status/headers with the body
   omitted). *)
let endpoint_get t target =
  match target with
  | "/metrics" ->
    Option.iter Obs.update_runtime_gauges t.obs_ctx;
    refresh_domain_gauges t;
    Some
      ( 200,
        [ ("content-type", "text/plain; version=0.0.4; charset=utf-8") ],
        Exposition.to_prometheus t.registry )
  | "/healthz" -> Some (healthz t)
  | "/statusz" ->
    Option.iter Obs.update_runtime_gauges t.obs_ctx;
    refresh_domain_gauges t;
    Some (200, json_headers, Jsonx.to_string (statusz_json t) ^ "\n")
  | _ -> None

let handle t (req : Http.request) ~rid ~t0 =
  let close =
    match Http.header req "connection" with
    | Some v -> String.lowercase_ascii (String.trim v) = "close"
    | None -> false
  in
  let resp, post =
    match (req.meth, req.target) with
    | "POST", "/query" -> handle_query t ~rid ~t0 req.body
    | ("GET" | "HEAD"), target -> (
      match endpoint_get t target with
      | Some (status, headers, body) ->
        ( Http.render_response ~headers ~head:(req.meth = "HEAD") ~status body,
          None )
      | None -> (error_response ~status:404 "no such endpoint", None))
    | "POST", _ -> (error_response ~status:404 "no such endpoint", None)
    | _ -> (error_response ~status:405 "method not allowed", None)
  in
  (resp, close, post)

(* ------------------------------------------------------------------ *)
(* Connection I/O                                                     *)
(* ------------------------------------------------------------------ *)

(* Reads and writes retry EINTR (Client's helpers), so the signal that
   starts a graceful drain cannot cut a response short. *)
let conn_loop t fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let off = ref 0 in
  let closed = ref false in
  let send s = try Client.write_all fd s with _ -> closed := true in
  (try
     while not !closed do
       (* serve every complete pipelined request already buffered *)
       let progress = ref true in
       while !progress && not !closed do
         (* parse-phase start for the request this attempt completes;
            earlier Incomplete attempts (partial reads) are not
            attributed — parse covers the final parse + key decode *)
         let pt0 = Timer.monotonic_s () in
         match
           Http.parse_request (Buffer.contents buf) ~off:!off
         with
         | Http.Complete (req, used) ->
           off := !off + used;
           Counter.incr t.c_requests;
           let rid = Atomic.fetch_and_add t.req_seq 1 in
           let resp, close, post = handle t req ~rid ~t0:pt0 in
           let w0 = Timer.monotonic_s () in
           send resp;
           (match post with
           | None -> ()
           | Some finish -> finish (Timer.monotonic_s () -. w0));
           if close then closed := true
         | Http.Incomplete ->
           progress := false;
           if !off > 0 then begin
             (* compact the consumed prefix before reading more *)
             let rest = Buffer.sub buf !off (Buffer.length buf - !off) in
             Buffer.clear buf;
             Buffer.add_string buf rest;
             off := 0
           end
         | Http.Failed e ->
           Counter.incr t.c_bad;
           send
             (Http.render_response
                ~headers:(("connection", "close") :: json_headers)
                ~status:e.Http.status
                (Jsonx.to_string
                   (Jsonx.Obj
                      [
                        ("status", Jsonx.Str "bad_request");
                        ("error", Jsonx.Str e.Http.reason);
                      ])
                ^ "\n"));
           closed := true
       done;
       if not !closed then
         match Client.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> closed := true
         | n -> Buffer.add_subbytes buf chunk 0 n
         | exception _ -> closed := true
     done
   with _ -> ());
  (try Unix.close fd with _ -> ())

(* Poll with a short select so shutdown can stop the loop: closing a
   socket does not wake a thread blocked in accept(2), so a blocking
   accept here would make [stop] hang. *)
let accept_loop t =
  let rec go () =
    if t.stopping then ()
    else
      let ready =
        match Unix.select [ t.lsock ] [] [] 0.05 with
        | r, _, _ -> r <> []
        | exception _ -> false
      in
      if t.stopping then ()
      else if not ready then go ()
      else
        match Unix.accept ~cloexec:true t.lsock with
        | exception _ -> if not t.stopping then go ()
        | fd, _addr ->
          Counter.incr t.c_conns;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
          let th = Thread.create (fun () -> conn_loop t fd) () in
          Mutex.lock t.conns_mu;
          t.conns <- (fd, th) :: t.conns;
          Mutex.unlock t.conns_mu;
          go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) ?domains ?budget_bytes engine =
  if config.slow_ring < 0 then
    invalid_arg "Server.create: slow_ring must be >= 0";
  if config.slo_p99_s < 0.0 || Float.is_nan config.slo_p99_s then
    invalid_arg "Server.create: slo_p99_s must be >= 0";
  (* a client hanging up mid-response must surface as EPIPE on the
     write, not kill the process *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let pool = Pool.create ?domains ?budget_bytes engine in
  let registry, obs_ctx =
    match Engine.obs engine with
    | Some ctx -> (Obs.metrics ctx, Some ctx)
    | None -> (Metrics.create (), None)
  in
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen lsock listen_backlog
   with e ->
     (try Unix.close lsock with _ -> ());
     Pool.shutdown pool;
     raise e);
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let rec_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      config.record
  in
  let counter name help = Metrics.counter registry ~help name in
  let c_conns = counter "olar_http_connections_total" "TCP connections accepted" in
  let c_requests = counter "olar_http_requests_total" "HTTP requests parsed" in
  let c_queries = counter "olar_http_queries_total" "well-formed /query requests" in
  let c_bad =
    counter "olar_http_bad_requests_total"
      "malformed requests answered 400/413/431/501"
  in
  let c_shed_queue =
    counter "olar_http_shed_queue_total"
      "queries shed with 429 (admission queue full)"
  in
  let c_shed_deadline =
    counter "olar_http_shed_deadline_total"
      "queries shed with 503 (deadline passed while queued)"
  in
  let c_5xx =
    counter "olar_http_5xx_total" "responses answered with a 5xx status"
  in
  let h_request =
    Metrics.histogram registry
      ~help:"end-to-end /query latency (admission to response build)"
      "olar_http_request_seconds"
  in
  let h_phase =
    Array.map
      (fun phase ->
        Metrics.histogram registry ~help:"per-phase /query latency attribution"
          ~labels:[ ("phase", phase) ]
          "olar_http_phase_seconds")
      phase_names
  in
  (* The eventring consumer rides the obs gate: a bare test server
     (no --metrics/--trace) pays nothing for GC attribution. Start
     failure (an exotic runtime without eventring support) degrades to
     the unattributed server rather than refusing to serve. *)
  let runtime_obs =
    match obs_ctx with
    | None -> None
    | Some _ -> (
      try
        Some (Runtime_obs.start ~metrics:registry ~clock:Timer.monotonic_s ())
      with _ -> None)
  in
  (* 60 one-second buckets over the same monotonic clock the tickets
     are stamped with. *)
  let win = Window.create ~clock:Timer.monotonic_s () in
  let t =
    {
      cfg = config;
      pool;
      lsock;
      bound_port;
      registry;
      obs_ctx;
      c_conns;
      c_requests;
      c_queries;
      c_bad;
      c_shed_queue;
      c_shed_deadline;
      c_5xx;
      g_queue_depth =
        Metrics.gauge registry ~help:"admission queue depth at last change"
          "olar_http_queue_depth";
      g_queue_peak =
        Metrics.gauge registry ~help:"peak admission queue depth"
          "olar_http_queue_depth_peak";
      g_health =
        Metrics.gauge registry
          ~help:"health engine verdict: 0 ok, 1 degraded, 2 unhealthy"
          "olar_health_state";
      h_request;
      h_phase;
      win;
      w_queries = Window.track_counter win c_queries;
      w_shed_queue = Window.track_counter win c_shed_queue;
      w_shed_deadline = Window.track_counter win c_shed_deadline;
      w_5xx = Window.track_counter win c_5xx;
      w_request = Window.track_histogram win h_request;
      w_phase = Array.map (Window.track_histogram win) h_phase;
      w_gc =
        Option.map
          (fun ro -> Window.track_histogram win (Runtime_obs.pauses ro))
          runtime_obs;
      thresholds =
        Health.with_slo_p99 Health.default_thresholds ~slo_s:config.slo_p99_s;
      runtime_obs;
      req_seq = Atomic.make 0;
      started_s = Timer.monotonic_s ();
      slow_mu = Mutex.create ();
      slow_ring = Array.make config.slow_ring None;
      slow_seen = 0;
      last_sample_s = neg_infinity;
      qmu = Mutex.create ();
      qcv = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      stopped = false;
      rec_oc;
      rec_mu = Mutex.create ();
      rec_seq = 0;
      free_mu = Mutex.create ();
      free_tickets = [];
      free_count = 0;
      accept_thread = None;
      drainer_thread = None;
      ticker_thread = None;
      conns_mu = Mutex.create ();
      conns = [];
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.drainer_thread <- Some (Thread.create drainer_loop t);
  t.ticker_thread <- Some (Thread.create ticker_loop t);
  t

let port t = t.bound_port
let url t = Printf.sprintf "http://%s:%d" t.cfg.host t.bound_port
let pool t = t.pool

let stop t =
  Mutex.lock t.qmu;
  if t.stopped then Mutex.unlock t.qmu
  else begin
    t.stopped <- true;
    t.stopping <- true;
    (* wake the drainer so it drains the remaining queue and exits *)
    Condition.broadcast t.qcv;
    Mutex.unlock t.qmu;
    (* the accept loop notices [stopping] within one select tick; only
       close the listener after it exits so the fd cannot be reused
       under a racing accept *)
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.lsock with _ -> ());
    (* every already-admitted query is served before the drainer exits *)
    Option.iter Thread.join t.drainer_thread;
    (* the ticker notices [stopping] within one 50ms delay *)
    Option.iter Thread.join t.ticker_thread;
    Option.iter Runtime_obs.stop t.runtime_obs;
    (* unblock idle keep-alive readers; in-flight responses still go
       out because only the receive side is shut down *)
    Mutex.lock t.conns_mu;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.conns_mu;
    List.iter
      (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      conns;
    List.iter (fun (_, th) -> Thread.join th) conns;
    Option.iter close_out_noerr t.rec_oc;
    Pool.shutdown t.pool;
    (* every producer thread is joined: merge whatever spans are still
       buffered so a trace file is complete when [stop] returns *)
    Option.iter Obs.flush t.obs_ctx
  end

let with_server ?config ?domains ?budget_bytes engine f =
  let t = create ?config ?domains ?budget_bytes engine in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
