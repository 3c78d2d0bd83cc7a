(* perfbench: the repository's benchmark (see README.md).

   One run = one workload at one seed:
   1. set-up: generate T10.I4.D10K, preprocess it at 0.2% primary
      support, save the lattice, spawn a fresh `olar serve` on it;
   2. drive the server over persistent connections in a closed loop
      with the workload's pre-drawn request stream;
   3. check every response digest against serial in-process execution.

   With --trace 0 the run times the end-to-end metrics; with --trace 1
   it instead replays one prefix of the stream up the layer ladder
   (Engine, Session, Pool, wire, traced wire) and reports per-layer
   metrics. The last stdout line is the result as one JSON object. *)

module Engine = Olar_core.Engine
module Session = Olar_serve.Session
module Jsonx = Olar_obs.Jsonx
module Counter = Olar_util.Timer.Counter

let monotonic = Olar_util.Timer.monotonic_s
let log fmt = Printf.ksprintf prerr_endline fmt

(* Settings shared by every workload: the workloads differ only in
   their traffic. *)
let cache_mb = 2
let budget_bytes = cache_mb * 1024 * 1024
let primary_support = 0.002

(* The database is the same in every run; --seed draws the traffic.
   With a seed-drawn database the lattice ranged from 15,086 to 22,727
   itemsets over seeds 1-7, which moved every output-heavy figure more
   than its bound. *)
let data_seed = Olar_datagen.Params.default.seed
let setup_reps = 3
let warmup_s = 2.0
let post_gap_s = 0.3

(* Per connection and per second of --seconds: the length of the
   prefix the traced ladder replays. *)
let ladder_reads = function "sweep" -> 40 | _ -> 150

let end_to_end =
  [
    ("setup_s", "s");
    ("qps", "1/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("us_per_item", "us");
    ("cpu_ms_per_query", "ms");
    ("rss_mb", "MiB");
    ("append_p50_ms", "ms");
  ]

let phases = [ "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" ]

let per_layer =
  [
    ("setup.datagen_s", "s");
    ("setup.preprocess_s", "s");
    ("setup.mining_candidates", "count");
    ("setup.save_s", "s");
    ("setup.ready_s", "s");
    ("setup.lattice_vertices", "count");
    ("setup.lattice_edges", "count");
    ("setup.lattice_mb", "MiB");
    ("engine.p50_us", "us");
    ("engine.p99_us", "us");
    ("engine.fixed_us", "us");
    ("engine.us_per_item", "us");
    ("engine.vertices_per_item", "ratio");
    ("engine.heap_pops_per_query", "ratio");
    ("session.hit_rate", "ratio");
    ("session.refine_share", "ratio");
    ("session.evictions", "count");
    ("session.resident_mb", "MiB");
    ("session.hit_p50_us", "us");
    ("session.miss_overhead_us", "us");
    ("session.self_us", "us");
    ("pool.exec_p50_us", "us");
    ("pool.exec_p99_us", "us");
    ("pool.wait_p50_us", "us");
    ("pool.wait_p99_us", "us");
    ("pool.busy_frac", "ratio");
    ("pool.self_us", "us");
    ("pool.retired_snapshots_end", "count");
    ("server.overhead_p50_us", "us");
    ("server.client_p50_us", "us");
  ]
  @ List.map (fun p -> ("server.phase." ^ p ^ "_mean_us", "us")) phases
  @ [
      ("server.bytes_per_item", "B");
      ("server.cache_hit_rate", "ratio");
      ("server.gc_minor_per_kq", "count");
      ("server.gc_pause_ms_per_kq", "ms");
      ("server.shed", "count");
      ("maintenance.fold_p50_ms", "ms");
      ("maintenance.promoted_per_append", "ratio");
      ("maintenance.generations", "count");
      ("trace.overhead_frac", "ratio");
    ]

type config = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  olar : string;
  work : string;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let result_json r =
  let unit name =
    match List.assoc_opt name (end_to_end @ per_layer) with
    | Some u -> u
    | None -> invalid_arg ("no unit for " ^ name)
  in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool r.correct);
         ("attempted", Jsonx.Int r.attempted);
         ("failed", Jsonx.Int r.failed);
         ( "metrics",
           Jsonx.Obj
             (List.map
                (fun (name, v) ->
                  (name, Jsonx.Obj [ ("value", Jsonx.Float v); ("unit", Jsonx.Str (unit name)) ]))
                r.metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* Host class                                                         *)
(* ------------------------------------------------------------------ *)

let nproc () =
  try
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let n = In_channel.input_all ic in
    ignore (Unix.close_process_in ic);
    int_of_string (String.trim n)
  with _ -> 0

let host () =
  let cpu =
    try
      Wire.read_file "/proc/cpuinfo"
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"model name" l then
               Some (String.trim (List.nth (String.split_on_char ':' l) 1))
             else None)
      |> Option.value ~default:"unknown"
    with _ -> "unknown"
  in
  Jsonx.Obj
    [
      ("nproc", Jsonx.Int (nproc ()));
      ("recommended_domains", Jsonx.Int (Domain.recommended_domain_count ()));
      ("cpu", Jsonx.Str cpu);
      ("ocaml", Jsonx.Str Sys.ocaml_version);
    ]

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

type setup = {
  engine : Engine.t;
  server : Wire.server;
  lattice : string;
  datagen_s : float;
  preprocess_s : float;
  save_s : float;
  ready_s : float;
  candidates : int;
}

let setup_s s = s.datagen_s +. s.preprocess_s +. s.save_s +. s.ready_s

let setup cfg rep =
  let params =
    { (Option.get (Olar_datagen.Params.of_name "T10.I4.D10K")) with seed = data_seed }
  in
  let t0 = monotonic () in
  let db = Olar_datagen.Quest.generate params in
  let t1 = monotonic () in
  let stats = Olar_mining.Stats.create () in
  let engine = Engine.at_threshold ~stats db ~primary_support in
  let t2 = monotonic () in
  let lattice = Filename.concat cfg.work "lattice.olar" in
  Engine.save engine lattice;
  let t3 = monotonic () in
  let server =
    Wire.spawn ~olar:cfg.olar ~lattice ~cache_mb
      ~log:(Filename.concat cfg.work (Printf.sprintf "serve-%d.log" rep))
      []
  in
  let t4 = monotonic () in
  {
    engine;
    server;
    lattice;
    datagen_s = t1 -. t0;
    preprocess_s = t2 -. t1;
    save_s = t3 -. t2;
    ready_s = t4 -. t3;
    candidates = Counter.value stats.Olar_mining.Stats.candidates;
  }

(* ------------------------------------------------------------------ *)
(* Checking                                                           *)
(* ------------------------------------------------------------------ *)

(* The samples that failed: any non-200, transport error or timeout,
   and any digest that no serial execution in its generation range
   reproduces. *)
let failures oracle (stream : Stream.t) samples =
  let bad_status =
    List.length (List.filter (fun s -> not (Drive.ok s)) samples)
  in
  let reads, append_bad =
    List.fold_left
      (fun (reads, bad) (s : Drive.sample) ->
        match (s.action, s.reply) with
        | Drive.Read idx, Some r ->
          ({ Oracle.idx; lo = s.lo; hi = s.hi; digest = r.digest } :: reads, bad)
        | Drive.Append i, Some r ->
          (reads, if r.digest = oracle.Oracle.appends.(i) then bad else bad + 1)
        | _, None -> (reads, bad))
      ([], 0) samples
  in
  let mismatches = Oracle.check oracle stream.table reads + append_bad in
  if mismatches > 0 then log "perfbench: %d digest mismatches" mismatches;
  bad_status + mismatches

(* Both modes draw the stream for the warm-up plus the window, so a
   seed gives the traced ladder the prefix of the stream it times. *)
let make_stream cfg engine =
  Stream.make ~workload:cfg.workload ~seed:cfg.seed
    ~seconds:(warmup_s +. float cfg.seconds) engine

let describe cfg (stream : Stream.t) =
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("workload", Jsonx.Str cfg.workload);
            ("seed", Jsonx.Int cfg.seed);
            ("data_seed", Jsonx.Int data_seed);
            ("seconds", Jsonx.Int cfg.seconds);
            ("trace", Jsonx.Bool cfg.trace);
            ("cache_mb", Jsonx.Int cache_mb);
            ("stream_hash", Jsonx.Str stream.hash);
            ("host", host ());
          ]))

(* The line before the result: the error rate, each timing's sample
   count with the highest percentile that still has ten samples above
   it, and with [laps], how many times the busiest connection went
   through its read sequence (above 1 once a run outruns the stream). *)
let summarize ?laps ?(extra = []) ~attempted ~failed timings =
  let error_rate = Stat.ratio (float failed) (float attempted) in
  log "  error_rate %.4g (%d of %d failed)" error_rate failed attempted;
  Option.iter (log "  laps %.3g of the read sequences") laps;
  List.iter
    (fun (name, v) ->
      let n = Array.length v in
      log "  %-14s n=%-7d p50=%.4g p99=%.4g (p%.2f has >=10 samples above it)" name n
        (Stat.quantile v 0.5) (Stat.quantile v 0.99) (Stat.max_percentile n))
    timings;
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          ([
            ("error_rate", Jsonx.Float error_rate);
            ( "timings",
              Jsonx.Obj
                (List.map
                   (fun (name, v) ->
                     ( name,
                       Jsonx.Obj
                         [
                           ("samples", Jsonx.Int (Array.length v));
                           ("max_percentile", Jsonx.Float (Stat.max_percentile (Array.length v)));
                         ] ))
                   timings) );
          ]
          @ Option.fold ~none:[] ~some:(fun l -> [ ("laps", Jsonx.Float l) ]) laps
          @ extra)))

let floats f l = Array.of_list (List.map f l)
let reads_ok samples = List.filter (fun s -> Drive.is_read s && Drive.ok s) samples

let appends_ok samples =
  List.filter (fun s -> (not (Drive.is_read s)) && Drive.ok s) samples

let size (s : Drive.sample) = match s.reply with Some r -> r.size | None -> 0
let reply (s : Drive.sample) = Option.get s.reply
let all_appends (stream : Stream.t) = Array.init (Array.length stream.deltas) (fun i -> Drive.Append i)

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end                                              *)
(* ------------------------------------------------------------------ *)

(* The end-to-end figures of one stretch of the window: [samples] are
   the requests that completed in it, [secs] its length and [cpu] the
   server CPU seconds spent in it. *)
let figures samples ~secs ~cpu =
  let reads = reads_ok samples in
  let rtt_ms = floats (fun x -> 1000.0 *. Drive.rtt x) reads in
  let completed = List.length (List.filter Drive.ok samples) in
  let items = List.fold_left (fun n x -> n + size x) 0 reads in
  ( rtt_ms,
    [
      ("qps", float completed /. secs);
      ("p50_ms", Stat.quantile rtt_ms 0.5);
      ("p99_ms", Stat.quantile rtt_ms 0.99);
      ("us_per_item", 1000.0 *. Stat.sum rtt_ms /. float (max 1 items));
      ("cpu_ms_per_query", 1000.0 *. cpu /. float (max 1 completed));
    ] )

(* The window is cut into [slices] equal slices (on ingest each holds
   one fold, in its middle) and the timings are read off the [kept]
   slices that completed the most requests. On a shared host the CPU
   a run gets changes speed by 1.5x and more over seconds to minutes,
   often with no trace in the steal counter, so a whole-window figure
   measures the neighbours as much as the program. The fastest slices
   of a run are those the host disturbed least. *)
let slices = Stream.num_deltas
let kept = slices / 4

let run_e2e cfg =
  let reps =
    List.init setup_reps (fun rep ->
        let s = setup cfg rep in
        if rep < setup_reps - 1 then Wire.stop s.server;
        s)
  in
  let s = List.nth reps (setup_reps - 1) in
  let server = s.server in
  let stream = make_stream cfg s.engine in
  describe cfg stream;
  let gens = Drive.gens () in
  let pos = Array.map (fun _ -> ref 0) stream.clients in
  let plans ?(due = fun () -> None) t_end =
    List.init (Array.length stream.clients) (fun k ->
        let due = if k = 0 then due else fun () -> None in
        Drive.timed ~due stream.clients.(k) pos.(k) ~t_end)
  in
  let run plans = List.concat (Drive.run server stream gens plans) in
  let warm = run (plans (monotonic () +. warmup_s)) in
  let window_s = float cfg.seconds in
  let slice_s = window_s /. float slices in
  let num_deltas = Array.length stream.deltas in
  let t_start = monotonic () in
  (* server CPU seconds at each slice boundary *)
  let cpu = Array.make (slices + 1) (Wire.cpu_s server.pid) in
  let sampler =
    Thread.create
      (fun () ->
        for i = 1 to slices do
          Thread.delay (Float.max 0.0 (t_start +. (slice_s *. float i) -. monotonic ()));
          cpu.(i) <- Wire.cpu_s server.pid
        done)
      ()
  in
  (* ingest folds delta i in the middle of slice i *)
  let next = ref 0 in
  let due () =
    if cfg.workload = "ingest" && !next < num_deltas
       && monotonic () >= t_start +. (slice_s *. (float !next +. 0.5))
    then begin
      incr next;
      Some (!next - 1)
    end
    else None
  in
  let window = run (plans ~due (t_start +. window_s)) in
  let secs = monotonic () -. t_start in
  Thread.join sampler;
  let server_cpu = Wire.cpu_s server.pid -. cpu.(0) in
  let rss = Wire.peak_rss_mb server.pid in
  (* elsewhere the same deltas are folded after the window, on the
     quiet server, spaced so that their median spans a few seconds of
     the host rather than one burst *)
  let post =
    if cfg.workload = "ingest" then []
    else run [ Drive.scripted ~gap:post_gap_s (all_appends stream) ]
  in
  Wire.stop server;
  let samples = warm @ window @ post in
  let failed = failures (Oracle.create s.engine stream.deltas) stream samples in
  let append_ms = floats (fun x -> 1000.0 *. Drive.rtt x) (appends_ok (window @ post)) in
  let setups = Array.of_list (List.map setup_s reps) in
  (* each request counts in the slice it completed in; the few still
     in flight at the end of the window count in none *)
  let by_slice = Array.make slices [] in
  List.iter
    (fun (x : Drive.sample) ->
      let i = int_of_float ((x.t1 -. t_start) /. slice_s) in
      if i >= 0 && i < slices then by_slice.(i) <- x :: by_slice.(i))
    window;
  let fastest =
    List.filteri
      (fun rank _ -> rank < kept)
      (List.stable_sort
         (fun i j ->
           compare
             (List.length (List.filter Drive.ok by_slice.(j)))
             (List.length (List.filter Drive.ok by_slice.(i))))
         (List.init slices Fun.id))
  in
  let rtt_ms, timings =
    figures
      (List.concat_map (fun i -> by_slice.(i)) fastest)
      ~secs:(slice_s *. float kept)
      ~cpu:(List.fold_left (fun a i -> a +. cpu.(i + 1) -. cpu.(i)) 0.0 fastest)
  in
  let whole_ms, whole = figures window ~secs ~cpu:server_cpu in
  let laps =
    Array.fold_left max 0.0
      (Array.mapi (fun k p -> float !p /. float (Array.length stream.clients.(k))) pos)
  in
  let obj l = Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) l) in
  log "  fastest %d of %d slices: %s" kept slices
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.4g" k v) timings));
  log "  whole window:        %s"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.4g" k v) whole));
  summarize ~laps
    ~extra:[ ("kept_slices", Jsonx.Int kept); ("slices", Jsonx.Int slices); ("whole_window", obj whole) ]
    ~attempted:(List.length samples) ~failed
    [ ("read_ms", rtt_ms); ("read_ms_whole_window", whole_ms); ("append_ms", append_ms); ("setup_s", setups) ];
  let metrics =
    (("setup_s", Stat.median setups) :: timings)
    @ [ ("rss_mb", rss); ("append_p50_ms", Stat.quantile append_ms 0.5) ]
  in
  {
    correct = failed = 0 && rtt_ms <> [||] && Array.length append_ms = num_deltas;
    attempted = List.length samples;
    failed;
    metrics;
  }

(* ------------------------------------------------------------------ *)
(* --trace 1: the layer ladder                                        *)
(* ------------------------------------------------------------------ *)

(* Per connection: the first [m] reads of its sequence; on ingest,
   connection 0 also folds every delta, evenly spaced. *)
let ladder_scripts (stream : Stream.t) ~ingest m =
  let n = Array.length stream.deltas in
  Array.mapi
    (fun k seq ->
      let reads = List.init m (fun j -> Drive.Read seq.(j mod Array.length seq)) in
      if k > 0 || not ingest then Array.of_list reads
      else
        Array.of_list
          (List.concat
             (List.mapi
                (fun j r ->
                  let folds =
                    List.filter
                      (fun i -> (i + 1) * m / (n + 1) = j)
                      (List.init n Fun.id)
                  in
                  List.map (fun i -> Drive.Append i) folds @ [ r ])
                reads)))
    stream.clients

(* The serial order of the in-process rungs: the connections' scripts
   interleaved round-robin. *)
let interleave scripts =
  let longest = Array.fold_left (fun m s -> max m (Array.length s)) 0 scripts in
  Array.of_list
    (List.concat
       (List.init longest (fun j ->
            List.filter_map
              (fun s -> if j < Array.length s then Some s.(j) else None)
              (Array.to_list scripts))))

let is_read_call (c : Ladder.call) =
  match c.action with Drive.Read _ -> true | Drive.Append _ -> false

let read_calls calls = List.filter is_read_call (Array.to_list calls)
let us x = 1e6 *. x

(* Spans: one per call and layer, kept in memory and written at the
   end, then the traced server's own spans, each http.request
   re-parented under the bench's span for the same request. *)
type span = {
  layer : string;
  conn : int;
  seq : int;
  name : string;
  start : float;
  dur : float;
  items : int;
}

let kind_name (stream : Stream.t) = function
  | Drive.Read i -> Olar_replay.Record.kind_to_string stream.table.(i).kind
  | Drive.Append _ -> "append"

let write_spans path ~wall_of spans ~traced_ids server_trace =
  let oc = open_out path in
  let bench = Array.of_list spans in
  Array.iteri
    (fun id s ->
      output_string oc
        (Jsonx.to_string
           (Jsonx.Obj
              [
                ("id", Jsonx.Int id);
                ("parent", Jsonx.Null);
                ("layer", Jsonx.Str s.layer);
                ("name", Jsonx.Str s.name);
                ("conn", Jsonx.Int s.conn);
                ("seq", Jsonx.Int s.seq);
                ("start_s", Jsonx.Float (wall_of s.start));
                ("duration_s", Jsonx.Float s.dur);
                ("size", Jsonx.Int s.items);
              ]));
      output_char oc '\n')
    bench;
  (* server span ids move past the bench's; an http.request span's
     parent becomes the bench span of the same request id *)
  let offset = Array.length bench in
  let lines =
    try String.split_on_char '\n' (Wire.read_file server_trace) with Sys_error _ -> []
  in
  List.iter
    (fun line ->
      match Jsonx.of_string line with
      | Ok (Jsonx.Obj fields) ->
        let int_field name =
          Option.bind (List.assoc_opt name fields) Jsonx.number |> Option.map int_of_float
        in
        let parent =
          match int_field "parent" with
          | Some p -> Jsonx.Int (p + offset)
          | None -> (
            match
              Option.bind (Jsonx.path [ "attrs"; "request" ] (Jsonx.Obj fields)) Jsonx.number
            with
            | Some rid -> (
              match Hashtbl.find_opt traced_ids (int_of_float rid) with
              | Some id -> Jsonx.Int id
              | None -> Jsonx.Null)
            | None -> Jsonx.Null)
        in
        let fields =
          List.map
            (fun (k, v) ->
              match k with
              | "id" -> (k, Jsonx.Int (Option.get (int_field "id") + offset))
              | "parent" -> (k, parent)
              | _ -> (k, v))
            fields
        in
        output_string oc
          (Jsonx.to_string (Jsonx.Obj (("layer", Jsonx.Str "server") :: fields)));
        output_char oc '\n'
      | _ -> ())
    lines;
  close_out oc

let run_trace cfg =
  let s = setup cfg 0 in
  let stream = make_stream cfg s.engine in
  describe cfg stream;
  let wall0 = Unix.gettimeofday () and mono0 = monotonic () in
  let wall_of t = wall0 +. (t -. mono0) in
  let oracle = Oracle.create s.engine stream.deltas in
  let ingest = cfg.workload = "ingest" in
  let scripts = ladder_scripts stream ~ingest (ladder_reads cfg.workload * cfg.seconds) in
  let serial = interleave scripts in
  let spans = ref [] in
  let add_span layer conn seq action start dur items =
    spans :=
      { layer; conn; seq; name = kind_name stream action; start; dur; items } :: !spans
  in
  (* rung 1: Engine *)
  let eng, vertices, pops = Ladder.engine s.engine stream serial in
  (* rung 2: Session *)
  let ses, ses_stats = Ladder.session ~budget_bytes s.engine stream serial in
  let working_set = Ladder.working_set s.engine stream serial in
  List.iter
    (fun (layer, calls) ->
      Array.iteri
        (fun i (c : Ladder.call) -> add_span layer 0 i c.action c.start c.dur c.size)
        calls)
    [ ("engine", eng); ("session", ses) ];
  (* rung 3: Pool *)
  let pool = Ladder.pool ~budget_bytes s.engine stream scripts in
  Array.iteri
    (fun i (c : Ladder.call) -> add_span "pool" 0 i c.action c.start c.dur c.size)
    pool.calls;
  (* rung 4: the wire, untraced, on the set-up server *)
  let wire_run server gens =
    let t0 = monotonic () in
    let per_conn =
      Drive.run server stream gens (Array.to_list (Array.map Drive.scripted scripts))
    in
    let samples = List.concat per_conn in
    let t1 = List.fold_left (fun m (x : Drive.sample) -> Float.max m x.t1) t0 samples in
    (per_conn, t1 -. t0)
  in
  let gens = Drive.gens () in
  let before = Wire.scrape s.server in
  let wire, wire_s = wire_run s.server gens in
  let after = Wire.scrape s.server in
  let post =
    if ingest then []
    else List.concat (Drive.run s.server stream gens [ Drive.scripted (all_appends stream) ])
  in
  Wire.stop s.server;
  (* rung 5: the wire again, on a fresh server tracing every request *)
  let server_trace = Filename.concat cfg.work "server-trace.jsonl" in
  let traced_server =
    Wire.spawn ~olar:cfg.olar ~lattice:s.lattice ~cache_mb
      ~log:(Filename.concat cfg.work "serve-traced.log")
      [ "--trace"; server_trace; "--trace-sample"; "1" ]
  in
  let traced, traced_s = wire_run traced_server (Drive.gens ()) in
  Wire.stop traced_server;
  let traced_ids = Hashtbl.create 4096 in
  let tag layer =
    List.iteri (fun conn samples ->
        List.iteri
          (fun seq (x : Drive.sample) ->
            if layer = "wire.traced" then
              Option.iter
                (fun (r : Wire.reply) ->
                  Hashtbl.replace traced_ids r.rid (List.length !spans))
                x.reply;
            add_span layer conn seq x.action x.t0 (Drive.rtt x) (size x))
          samples)
  in
  tag "wire" wire;
  tag "wire.traced" traced;
  let wire = List.concat wire and traced = List.concat traced in
  let spans_path =
    Filename.concat cfg.work
      (Printf.sprintf "spans-%s-%d.jsonl" cfg.workload cfg.seed)
  in
  write_spans spans_path ~wall_of (List.rev !spans) ~traced_ids server_trace;
  log "perfbench: spans in %s" spans_path;
  (* correctness: the pool rung and both wire rungs *)
  let pool_reads, pool_bad =
    Array.fold_left
      (fun (reads, bad) (c : Ladder.call) ->
        match c.action with
        | Drive.Read idx -> ({ Oracle.idx; lo = c.gen; hi = c.gen; digest = c.digest } :: reads, bad)
        | Drive.Append i -> (reads, if c.digest = oracle.appends.(i) then bad else bad + 1))
      ([], 0) pool.calls
  in
  let pool_bad = pool_bad + Oracle.check oracle stream.table pool_reads in
  if pool_bad > 0 then log "perfbench: %d pool digest mismatches" pool_bad;
  let samples = wire @ post @ traced in
  let failed = failures oracle stream samples + pool_bad in
  (* per-layer metrics *)
  let eng_reads = read_calls eng and ses_reads = read_calls ses in
  let pool_reads = read_calls pool.calls in
  let mean_us calls = us (Stat.mean (floats (fun (c : Ladder.call) -> c.dur) calls)) in
  let eng_us = floats (fun (c : Ladder.call) -> us c.dur) eng_reads in
  let eng_items = List.fold_left (fun n (c : Ladder.call) -> n + c.size) 0 eng_reads in
  let fixed, slope =
    Stat.fit (floats (fun (c : Ladder.call) -> float c.size) eng_reads) eng_us
  in
  let hit (c : Ladder.call) =
    match c.path with Session.Hit | Session.Refine -> true | _ -> false
  in
  let miss_overhead =
    let acc = ref [] in
    Array.iteri
      (fun i (c : Ladder.call) ->
        if is_read_call c && c.path = Session.Miss then
          acc := us (c.dur -. eng.(i).dur) :: !acc)
      ses;
    Stat.mean (Array.of_list !acc)
  in
  let exec = floats (fun (c : Ladder.call) -> us c.exec) pool_reads in
  let wait = floats (fun (c : Ladder.call) -> us (c.dur -. c.exec)) pool_reads in
  let busy =
    Array.fold_left (fun a (d : Olar_serve.Pool.domain_stat) -> a +. d.busy_s) 0.0 pool.domains
  in
  let wire_reads = reads_ok wire in
  let d name = Wire.delta ~before ~after name in
  let phase_mean p =
    let label = Printf.sprintf "phase=%S" p in
    us
      (Stat.ratio
         (Wire.delta ~label ~before ~after "olar_http_phase_seconds_sum")
         (Wire.delta ~label ~before ~after "olar_http_phase_seconds_count"))
  in
  let kq = d "olar_http_queries_total" /. 1000.0 in
  let hits = d "olar_cache_hits_total" and misses = d "olar_cache_misses_total" in
  let folds = appends_ok (if ingest then wire else post) in
  let qps samples secs = float (List.length (reads_ok samples)) /. secs in
  let wire_items = List.fold_left (fun n x -> n + size x) 0 wire_reads in
  let lattice = Engine.stats s.engine in
  let metrics =
    [
      ("setup.datagen_s", s.datagen_s);
      ("setup.preprocess_s", s.preprocess_s);
      ("setup.mining_candidates", float s.candidates);
      ("setup.save_s", s.save_s);
      ("setup.ready_s", s.ready_s);
      ("setup.lattice_vertices", float lattice.vertices);
      ("setup.lattice_edges", float lattice.edges);
      ("setup.lattice_mb", float lattice.bytes /. 1048576.0);
      ("engine.p50_us", Stat.quantile eng_us 0.5);
      ("engine.p99_us", Stat.quantile eng_us 0.99);
      ("engine.fixed_us", fixed);
      ("engine.us_per_item", slope);
      ("engine.vertices_per_item", Stat.ratio (float vertices) (float eng_items));
      ("engine.heap_pops_per_query", Stat.ratio (float pops) (float (List.length eng_reads)));
      ("session.hit_rate", Stat.ratio (float ses_stats.hits) (float (ses_stats.hits + ses_stats.misses)));
      ("session.refine_share", Stat.ratio (float ses_stats.refines) (float ses_stats.hits));
      ("session.evictions", float ses_stats.evictions);
      ("session.resident_mb", float ses_stats.resident_bytes /. 1048576.0);
      ("session.hit_p50_us", Stat.quantile (floats (fun (c : Ladder.call) -> us c.dur) (List.filter hit ses_reads)) 0.5);
      ("session.miss_overhead_us", miss_overhead);
      ("session.self_us", mean_us ses_reads -. mean_us eng_reads);
      ("pool.exec_p50_us", Stat.quantile exec 0.5);
      ("pool.exec_p99_us", Stat.quantile exec 0.99);
      ("pool.wait_p50_us", Stat.quantile wait 0.5);
      ("pool.wait_p99_us", Stat.quantile wait 0.99);
      ("pool.busy_frac", busy /. (float (Array.length pool.domains) *. pool.wall_s));
      ("pool.self_us", mean_us pool_reads -. mean_us ses_reads);
      ("pool.retired_snapshots_end", float pool.retired);
      ("server.overhead_p50_us", Stat.quantile (floats (fun x -> us ((reply x).total_s -. (reply x).lat_s)) wire_reads) 0.5);
      ("server.client_p50_us", Stat.quantile (floats (fun x -> us (Drive.rtt x -. (reply x).total_s)) wire_reads) 0.5);
    ]
    @ List.map (fun p -> ("server.phase." ^ p ^ "_mean_us", phase_mean p)) phases
    @ [
        ("server.bytes_per_item", Stat.ratio (float (List.fold_left (fun n (x : Drive.sample) -> n + x.bytes) 0 wire_reads)) (float wire_items));
        ("server.cache_hit_rate", Stat.ratio hits (hits +. misses));
        ("server.gc_minor_per_kq", Stat.ratio (d "olar_gc_minor_total") kq);
        ("server.gc_pause_ms_per_kq", Stat.ratio (1000.0 *. d "olar_gc_pause_seconds_sum") kq);
        ("server.shed", d "olar_http_shed_queue_total" +. d "olar_http_shed_deadline_total");
        ("maintenance.fold_p50_ms", 1000.0 *. Stat.quantile (floats (fun x -> (reply x).lat_s) folds) 0.5);
        ("maintenance.promoted_per_append", Stat.mean (floats (fun x -> float (size x)) folds));
        ("maintenance.generations", float (List.length folds));
        ("trace.overhead_frac", 1.0 -. Stat.ratio (qps traced traced_s) (qps wire wire_s));
      ]
  in
  log "perfbench %s seed=%d ladder: %d calls per rung; working set %d bytes against a %d byte budget"
    cfg.workload cfg.seed (Array.length serial) working_set budget_bytes;
  log "  mean us per read: engine %.1f  session %.1f  pool %.1f  wire %.1f  wire.traced %.1f"
    (mean_us eng_reads) (mean_us ses_reads) (mean_us pool_reads)
    (us (Stat.mean (floats Drive.rtt wire_reads)))
    (us (Stat.mean (floats Drive.rtt (reads_ok traced))));
  let attempted = List.length samples + Array.length pool.calls in
  summarize ~attempted ~failed
    [
      ("engine_us", eng_us);
      ("session_us", floats (fun (c : Ladder.call) -> us c.dur) ses_reads);
      ("pool_exec_us", exec);
      ("pool_wait_us", wait);
      ("wire_ms", floats (fun x -> 1000.0 *. Drive.rtt x) wire_reads);
      ("append_ms", floats (fun x -> 1000.0 *. Drive.rtt x) folds);
    ];
  { correct = failed = 0 && wire_reads <> []; attempted; failed; metrics }

let run cfg = if cfg.trace then run_trace cfg else run_e2e cfg

(* ------------------------------------------------------------------ *)
(* Self-test                                                          *)
(* ------------------------------------------------------------------ *)

(* Short runs of every workload in both modes. Fails when a metric is
   missing or non-finite, a digest mismatches, the explore working set
   does not fit the cache or the sweep working set does, a stream is
   not reproducible from its seed, or BENCHMARK.json names a metric the
   runs do not emit. *)
let selftest cfg =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let emitted = Hashtbl.create 64 in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let r = run { cfg with workload; trace; seconds = 5 } in
          let expected = if trace then per_layer else end_to_end in
          List.iter
            (fun (name, _) ->
              match List.assoc_opt name r.metrics with
              | None -> problem "%s: %s missing" workload name
              | Some v when not (Float.is_finite v) -> problem "%s: %s = %g" workload name v
              | Some _ -> Hashtbl.replace emitted name ())
            expected;
          if not r.correct || r.failed > 0 then
            problem "%s trace=%b: %d of %d failed" workload trace r.failed r.attempted;
          let evictions = List.assoc_opt "session.evictions" r.metrics in
          match (workload, evictions) with
          | "explore", Some e when e > 0.0 -> problem "explore evicted %g entries" e
          | "sweep", Some 0.0 -> problem "sweep evicted nothing"
          | _ -> ())
        [ false; true ])
    Stream.workloads;
  let s = setup cfg 0 in
  Wire.stop s.server;
  List.iter
    (fun workload ->
      let h seed = (make_stream { cfg with workload; seed; seconds = 5 } s.engine).hash in
      if h cfg.seed <> h cfg.seed then problem "%s stream differs for one seed" workload;
      if h cfg.seed = h (cfg.seed + 1) then problem "%s stream ignores the seed" workload)
    Stream.workloads;
  (match Jsonx.of_string (Wire.read_file "BENCHMARK.json") with
  | exception Sys_error _ -> problem "no BENCHMARK.json in the working directory"
  | Error e -> problem "BENCHMARK.json: %s" e
  | Ok spec ->
    List.iter
      (fun section ->
        List.iter
          (fun m ->
            match Option.bind (Jsonx.member "name" m) Jsonx.to_str with
            | Some name when not (Hashtbl.mem emitted name) ->
              problem "BENCHMARK.json names %s, which no run emits" name
            | _ -> ())
          (Option.value ~default:[] (Option.bind (Jsonx.member section spec) Jsonx.to_list)))
      [ "end_to_end"; "per_layer" ]);
  match !problems with
  | [] ->
    log "perfbench selftest: ok";
    0
  | ps ->
    List.iter (log "perfbench selftest: %s") (List.rev ps);
    1

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let usage =
  "bench --olar PATH [--workload explore|sweep|ingest] [--seed N] [--seconds N] \
   [--trace 0|1] [--work DIR] [--selftest]"

let () =
  let workload = ref "explore" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and olar = ref "" and work = ref "_perfbench" in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " explore, sweep or ingest");
      ("--seed", Arg.Set_int seed, " seed of the request streams");
      ("--seconds", Arg.Set_int seconds, " measured window");
      ("--trace", Arg.Set_int trace, " 1: per-layer ladder instead of end-to-end");
      ("--olar", Arg.Set_string olar, " path of the olar CLI");
      ("--work", Arg.Set_string work, " directory for lattices, logs and spans");
      ("--selftest", Arg.Set self, " short runs of every workload, checked");
    ]
    (fun a -> raise (Arg.Bad a))
    usage;
  if !olar = "" || not (List.mem !workload Stream.workloads) || !seconds < 1 then begin
    prerr_endline usage;
    exit 2
  end;
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cfg =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      olar = !olar;
      work = !work;
    }
  in
  if !self then exit (selftest cfg)
  else
    print_endline (result_json (run cfg))
