(* The in-process rungs of the layer ladder: the same pre-drawn actions
   through Engine (serially), Session (serially, at the server's cache
   budget) and Pool (at the wire's concurrency). Each call is one
   record; the bench turns them into spans and per-layer metrics. *)

module Engine = Olar_core.Engine
module Session = Olar_serve.Session
module Pool = Olar_serve.Pool
module Obs = Olar_obs.Obs
module Counter = Olar_util.Timer.Counter

let monotonic = Olar_util.Timer.monotonic_s

type call = {
  action : Drive.action;
  start : float;  (** monotonic *)
  dur : float;  (** seconds the layer took, as its caller sees it *)
  size : int;  (** result size, as the server counts it *)
  path : Session.path;  (** how the session served it (session rung) *)
  exec : float;  (** pool: claim-to-completion seconds *)
  gen : int;  (** pool: snapshot generation it executed at *)
  digest : string;  (** pool: response digest *)
}

let call action start dur size =
  {
    action;
    start;
    dur;
    size;
    path = Session.Passthrough;
    exec = 0.0;
    gen = 0;
    digest = "";
  }

let request (stream : Stream.t) = function
  | Drive.Read i -> stream.table.(i).request
  | Drive.Append i -> stream.deltas.(i).request

let delta stream action =
  match request stream action with
  | Pool.Append db -> db
  | _ -> invalid_arg "Ladder.delta"

let level = function Some _ -> 1 | None -> 0

(* Mirrors the server's result size per response kind. *)
let response_size = function
  | Pool.R_items a -> Array.length a
  | Pool.R_count c -> c
  | Pool.R_rules r -> List.length r
  | Pool.R_level l -> level l
  | Pool.R_entries e -> List.length e
  | Pool.R_promoted { promoted; _ } -> List.length promoted
  | Pool.R_error _ -> 0

let unsupported () = invalid_arg "Ladder: request kind not in any workload"

let engine_read engine : Pool.request -> int = function
  | Find_itemsets { containing; minsup } ->
    List.length (Engine.itemsets ~containing engine ~minsup)
  | Count_itemsets { containing; minsup } ->
    Engine.count_itemsets ~containing engine ~minsup
  | Essential_rules { containing; constraints; minsup; minconf } ->
    List.length (Engine.essential_rules ~containing ~constraints engine ~minsup ~minconf)
  | Support_for_k_itemsets { containing; k } ->
    level (Engine.support_for_k_itemsets engine ~containing ~k)
  | _ -> unsupported ()

let session_read s : Pool.request -> int = function
  | Find_itemsets { containing; minsup } ->
    List.length (Session.itemsets ~containing s ~minsup)
  | Count_itemsets { containing; minsup } ->
    Session.count_itemsets ~containing s ~minsup
  | Essential_rules { containing; constraints; minsup; minconf } ->
    List.length (Session.essential_rules ~containing ~constraints s ~minsup ~minconf)
  | Support_for_k_itemsets { containing; k } ->
    level (Session.support_for_k_itemsets s ~containing ~k)
  | _ -> unsupported ()

let counter obs name = Obs.counter (Option.get obs) name

(* Rung 1: the engine's public functions, one call at a time, with
   telemetry on as in the server. Returns the calls and the vertex
   expansions and heap pops they did. *)
let engine base stream script =
  let obs = Obs.create () in
  let vertices = counter obs "olar_query_vertices_visited_total" in
  let pops = counter obs "olar_query_heap_pops_total" in
  let engine = ref (Engine.with_obs base obs) in
  let calls =
    Array.map
      (fun action ->
        let t0 = monotonic () in
        let size =
          match action with
          | Drive.Read _ -> engine_read !engine (request stream action)
          | Drive.Append _ ->
            let next, promoted = Engine.append !engine (delta stream action) in
            engine := next;
            List.length promoted
        in
        call action t0 (monotonic () -. t0) size)
      script
  in
  (calls, Counter.value vertices, Counter.value pops)

(* Rung 2: one session over the engine, serially. *)
let session ~budget_bytes base stream script =
  let s = Session.create ~budget_bytes (Engine.with_obs base (Obs.create ())) in
  let calls =
    Array.map
      (fun action ->
        let t0 = monotonic () in
        let size =
          match action with
          | Drive.Read _ -> session_read s (request stream action)
          | Drive.Append _ -> List.length (Session.append s (delta stream action))
        in
        let dur = monotonic () -. t0 in
        { (call action t0 dur size) with path = Session.last_path s })
      script
  in
  (calls, Session.stats s)

(* The bytes the reads of [script] would keep resident in a cache that
   never evicts. *)
let working_set base stream script =
  let s = Session.create ~budget_bytes:max_int base in
  Array.iter
    (function
      | Drive.Read _ as a -> ignore (session_read s (request stream a))
      | Drive.Append _ -> ())
    script;
  (Session.stats s).resident_bytes

type pool_result = {
  calls : call array;
  wall_s : float;
  domains : Pool.domain_stat array;
  retired : int;
}

(* Rung 3: a pool sized as the server's, fed by [Pool.submit] with one
   request in flight per script, as one per connection on the wire. *)
let pool ~budget_bytes base stream scripts =
  Pool.with_pool ~budget_bytes base (fun pool ->
      let mu = Mutex.create () and cv = Condition.create () in
      let finished = Queue.create () in
      let pos = Array.make (Array.length scripts) 0 in
      let submit k =
        let script = scripts.(k) in
        if pos.(k) >= Array.length script then false
        else begin
          let action = script.(pos.(k)) in
          pos.(k) <- pos.(k) + 1;
          let t0 = monotonic () in
          Pool.submit pool (request stream action) (fun resp c ->
              let t1 = monotonic () in
              Mutex.lock mu;
              Queue.push (k, action, t0, t1, resp, c) finished;
              Condition.signal cv;
              Mutex.unlock mu);
          true
        end
      in
      let start = monotonic () in
      let in_flight = ref 0 in
      Array.iteri (fun k _ -> if submit k then incr in_flight) scripts;
      let calls = ref [] in
      while !in_flight > 0 do
        Mutex.lock mu;
        while Queue.is_empty finished do
          Condition.wait cv mu
        done;
        let k, action, t0, t1, resp, (c : Pool.completion) = Queue.pop finished in
        Mutex.unlock mu;
        decr in_flight;
        calls :=
          {
            (call action t0 (t1 -. t0) (response_size resp)) with
            exec = c.latency_s;
            gen = c.gen;
            digest = Oracle.digest_hex resp;
          }
          :: !calls;
        if submit k then incr in_flight
      done;
      Pool.drain pool;
      let wall_s = monotonic () -. start in
      {
        calls = Array.of_list (List.rev !calls);
        wall_s;
        domains = Pool.domain_stats pool;
        retired = Pool.retired_snapshots pool;
      })
