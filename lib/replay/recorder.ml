open Olar_data
module Session = Olar_serve.Session
module Pool = Olar_serve.Pool
module Engine = Olar_core.Engine
module Boundary = Olar_core.Boundary
module Rule = Olar_core.Rule
module Obs = Olar_obs.Obs
module Counter = Olar_util.Timer.Counter

type t = {
  session : Session.t;
  emit : Record.t -> unit;
  slow_s : float;
  clock : unit -> float;
  mutable seq : int;
  work_v : Counter.t option;
  work_h : Counter.t option;
      (* the engine context's shared work counters (the same cells the
         session and engine bump), so per-query work is a plain delta *)
}

let create ?(slow_s = 0.0) ?(clock = Olar_util.Timer.monotonic_s) ~emit session =
  let obs = Engine.obs (Session.engine session) in
  {
    session;
    emit;
    slow_s;
    clock;
    seq = 0;
    work_v =
      Option.map
        (fun ctx -> Obs.counter ctx "olar_query_vertices_visited_total")
        obs;
    work_h =
      Option.map (fun ctx -> Obs.counter ctx "olar_query_heap_pops_total") obs;
  }

let session t = t.session
let count t = t.seq

(* ------------------------------------------------------------------ *)
(* The record's view of a response                                    *)
(* ------------------------------------------------------------------ *)

let digest_response = function
  | Pool.R_items entries ->
    Some
      (Array.fold_left
         (fun h (x, count) -> Fnv.int (Fnv.itemset h x) count)
         Fnv.empty entries)
  | Pool.R_count c -> Some (Fnv.int Fnv.empty c)
  | Pool.R_rules rules ->
    Some
      (List.fold_left
         (fun h r ->
           let h = Fnv.itemset h r.Rule.antecedent in
           let h = Fnv.itemset h r.Rule.consequent in
           let h = Fnv.int h r.Rule.support_count in
           Fnv.int h r.Rule.antecedent_count)
         Fnv.empty rules)
  | Pool.R_level None -> Some (Fnv.int Fnv.empty 0)
  | Pool.R_level (Some level) -> Some (Fnv.float (Fnv.int Fnv.empty 1) level)
  | Pool.R_entries entries ->
    Some
      (List.fold_left
         (fun h (x, s) -> Fnv.float (Fnv.itemset h x) s)
         Fnv.empty entries)
  | Pool.R_promoted { promoted; db_size } ->
    Some (Fnv.int (List.fold_left Fnv.itemset Fnv.empty promoted) db_size)
  | Pool.R_error _ -> None

let result_size = function
  | Pool.R_items entries -> Array.length entries
  | Pool.R_count c -> c
  | Pool.R_rules rules -> List.length rules
  | Pool.R_level (Some _) -> 1
  | Pool.R_level None -> 0
  | Pool.R_entries entries -> List.length entries
  | Pool.R_promoted { promoted; _ } -> List.length promoted
  | Pool.R_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Request -> record key                                              *)
(* ------------------------------------------------------------------ *)

let key ~kind ?(containing = Itemset.empty)
    ?(constraints = Boundary.unconstrained) ?minsup ?minconf ?k ?(delta = [])
    ?(delta_num_items = 0) () =
  {
    Record.seq = 0;
    kind;
    containing;
    antecedent_includes = constraints.Boundary.antecedent_includes;
    consequent_includes = constraints.Boundary.consequent_includes;
    allow_empty_antecedent = constraints.Boundary.allow_empty_antecedent;
    minsup;
    minconf;
    k;
    delta;
    delta_num_items;
    cache = Record.Passthrough;
    digest = Fnv.empty;
    result_size = 0;
    latency_s = 0.0;
    vertices = 0;
    heap_pops = 0;
    epoch = 0;
  }

let key_of_request = function
  | Pool.Find_itemsets { containing; minsup } ->
    key ~kind:Record.Find_itemsets ~containing ~minsup ()
  | Pool.Count_itemsets { containing; minsup } ->
    key ~kind:Record.Count_itemsets ~containing ~minsup ()
  | Pool.Essential_rules { containing; constraints; minsup; minconf } ->
    key ~kind:Record.Essential_rules ~containing ~constraints ~minsup ~minconf ()
  | Pool.All_rules { containing; constraints; minsup; minconf } ->
    key ~kind:Record.All_rules ~containing ~constraints ~minsup ~minconf ()
  | Pool.Single_consequent_rules { containing; minsup; minconf } ->
    key ~kind:Record.Single_consequent_rules ~containing ~minsup ~minconf ()
  | Pool.Support_for_k_itemsets { containing; k } ->
    key ~kind:Record.Support_for_k_itemsets ~containing ~k ()
  | Pool.Support_for_k_rules { involving; minconf; k } ->
    key ~kind:Record.Support_for_k_rules ~containing:involving ~minconf ~k ()
  | Pool.Boundary { target; constraints; minconf } ->
    key ~kind:Record.Boundary ~containing:target ~constraints ~minconf ()
  | Pool.Append delta ->
    let delta_rows =
      List.rev
        (Database.fold (fun acc txn -> Itemset.to_list txn :: acc) [] delta)
    in
    key ~kind:Record.Append ~delta:delta_rows
      ~delta_num_items:(Database.num_items delta) ()

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

let value = function Some c -> Counter.value c | None -> 0

(* An exception from [Pool.exec] propagates before any record is
   built, so a raising query emits nothing and takes no seq. *)
let exec t req =
  let v0 = value t.work_v and h0 = value t.work_h in
  let t0 = t.clock () in
  let resp = Pool.exec t.session req in
  (* The default clock is monotone, but an injected one (or a platform
     where only a steppable wall clock exists) may run backwards;
     a latency must never be negative, so clamp. *)
  let latency_s = Float.max 0.0 (t.clock () -. t0) in
  let seq = t.seq in
  t.seq <- seq + 1;
  if latency_s >= t.slow_s then
    t.emit
      {
        (key_of_request req) with
        Record.seq;
        cache = Session.last_path t.session;
        digest = Option.value ~default:Fnv.empty (digest_response resp);
        result_size = result_size resp;
        latency_s;
        vertices = value t.work_v - v0;
        heap_pops = value t.work_h - h0;
        epoch = Engine.epoch (Session.engine t.session);
      };
  resp
