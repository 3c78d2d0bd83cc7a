(* The pre-drawn request streams of the three workloads.

   A stream is drawn once per run from the bench seed and the lattice
   built in set-up; the server only ever sees the request bodies. Each
   connection replays its own index sequence into the table of distinct
   requests, in order. The sequences are sized from the run's length and
   [ceiling_qps], so a run never wraps unless the server reads at more
   than that rate; the bench reports the laps sent. Appends
   are kept apart: [deltas] are folded in order, on connection 0, at
   times or positions the caller chooses, so every run folds the same
   batches. *)

open Olar_data
module Record = Olar_replay.Record
module Replay = Olar_replay.Replay
module Fnv = Olar_replay.Fnv
module Pool = Olar_serve.Pool
module Engine = Olar_core.Engine
module Lattice = Olar_core.Lattice

type req = {
  kind : Record.kind;
  body : string;  (** the POST /query body: a {!Record} query key *)
  http : string;  (** the whole HTTP/1.1 request carrying [body] *)
  request : Pool.request;  (** [body] as the server parses it *)
}

type t = {
  table : req array;  (** distinct read requests *)
  clients : int array array;  (** per connection: indices into [table] *)
  deltas : req array;  (** append requests, in fold order *)
  hash : string;  (** FNV-1a over every body in send order *)
}

let workloads = [ "explore"; "sweep"; "ingest" ]
let connections = 2

(* Reads per connection per second the sequences are sized for: about
   four times the rate measured on the 2-core host (explore about 3,700,
   sweep about 330). *)
let ceiling_qps = function "sweep" -> 1_500 | _ -> 16_000

(* Appends per run and transactions per append. *)
let num_deltas = 24
let delta_size = 25

let key ?(containing = Itemset.empty) ?minsup ?minconf ?k ?(delta = [])
    ?(num_items = 0) kind =
  {
    Record.seq = 0;
    kind;
    containing;
    antecedent_includes = Itemset.empty;
    consequent_includes = Itemset.empty;
    allow_empty_antecedent = false;
    minsup;
    minconf;
    k;
    delta;
    delta_num_items = num_items;
    cache = Record.Passthrough;
    digest = Fnv.empty;
    result_size = 0;
    latency_s = 0.0;
    vertices = 0;
    heap_pops = 0;
    epoch = 0;
  }

let http_of_body body =
  Printf.sprintf
    "POST /query HTTP/1.1\r\nhost: perfbench\r\ncontent-length: %d\r\n\r\n%s"
    (String.length body) body

(* The pool request is decoded from the body, exactly as the server
   decodes it, so the in-process oracle runs the query the server ran. *)
let req_of_key k =
  let body = Record.key_to_json_line k in
  let request =
    match Result.bind (Record.key_of_json_line body) Replay.request_of_record with
    | Ok r -> r
    | Error e -> failwith ("perfbench: bad key " ^ body ^ ": " ^ e)
  in
  { kind = k.Record.kind; body; http = http_of_body body; request }

(* Vertices of cardinality [n], most frequent first. *)
let top_itemsets lat n limit =
  let acc = ref [] in
  for v = 0 to Lattice.num_vertices lat - 1 do
    let x = Lattice.itemset lat v in
    if Itemset.cardinal x = n then acc := (Lattice.support lat v, x) :: !acc
  done;
  let sorted =
    List.sort
      (fun (a, x) (b, y) ->
        match compare b a with 0 -> Itemset.compare x y | c -> c)
      !acc
  in
  Array.of_list (List.filteri (fun i _ -> i < limit) sorted)

(* The fractional support that the engine turns into the count cut
   [count]: count / db itself can round up to the next cut. *)
let frac engine count =
  let s = ref (float count /. float (Engine.db_size engine)) in
  while Engine.count_of_support engine !s > count do
    s := Float.pred !s
  done;
  !s

let lowest engine = Engine.primary_threshold_count engine

(* explore: analyst drill-downs. A template fixes a focus itemset (a
   popular singleton or pair) and a support level; one visit issues
   count -> find -> find at a lower or higher minsup -> essential rules
   at minconf 0.9, 0.7, 0.5 -> top-k. Visits draw template rank r with
   weight 1/(r+1), the Zipf weighting of bench/main.ml's serve streams,
   so a small working set repeats. *)
let num_templates = 160
(* The widest answer of template [i] lies in band [i mod 4] of
   [min_itemsets, max_itemsets], so every seed has the same size
   profile over the Zipf ranks. *)
let min_itemsets = 40
let max_itemsets = 200
let bands = 4
let max_rules = 40
let confidences = [ 0.9; 0.7; 0.5 ]

let catalogue_seed = 0

let explore_table rng engine =
  let lat = Engine.lattice engine in
  let singles = top_itemsets lat 1 48 and pairs = top_itemsets lat 2 48 in
  let low = lowest engine in
  let table = ref [] and templates = ref 0 in
  while !templates < num_templates do
    let pool = if Random.State.bool rng then singles else pairs in
    let supp, c = pool.(Random.State.int rng (Array.length pool)) in
    let top = max (low + 1) (min supp (5 * low)) in
    let s0 = low + Random.State.int rng (top - low) in
    let s1 = if Random.State.bool rng then max low (s0 * 3 / 4) else s0 * 3 / 2 in
    let minsup = frac engine s0 in
    (* an analyst's drill-down has answers one can read: keep the
       templates whose widest answers stay small *)
    let widest = Engine.count_itemsets ~containing:c engine ~minsup:(frac engine (min s0 s1)) in
    let band = (max_itemsets - min_itemsets) / bands in
    let lo = min_itemsets + (band * (!templates mod bands)) in
    let readable =
      widest >= lo && widest <= lo + band
      && List.for_all
           (fun minconf ->
             List.length (Engine.essential_rules ~containing:c engine ~minsup ~minconf)
             <= max_rules)
           confidences
    in
    if readable then begin
      incr templates;
      let visit =
      [
        key Record.Count_itemsets ~containing:c ~minsup;
        key Record.Find_itemsets ~containing:c ~minsup;
        key Record.Find_itemsets ~containing:c ~minsup:(frac engine s1);
      ]
      @ List.map
          (fun minconf -> key Record.Essential_rules ~containing:c ~minsup ~minconf)
          confidences
      @ [
        key Record.Support_for_k_itemsets ~containing:c
          ~k:[| 5; 10; 20; 50 |].(Random.State.int rng 4);
      ]
      in
      table := List.rev_append (List.map req_of_key visit) !table
    end
  done;
  Array.of_list (List.rev !table)

let explore_clients rng ~reads =
  let visits = (reads + 6) / 7 in
  let weights = Array.init num_templates (fun r -> 1.0 /. float (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make num_templates 0.0 in
  ignore
    (Array.fold_left
       (fun (i, acc) w ->
         let acc = acc +. (w /. total) in
         cdf.(i) <- acc;
         (i + 1, acc))
       (0, 0.0) weights);
  let draw () =
    let u = Random.State.float rng 1.0 in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then go (mid + 1) hi else go lo mid
    in
    go 0 (num_templates - 1)
  in
  Array.init connections (fun _ ->
      let seq = Array.make (visits * 7) 0 in
      for v = 0 to visits - 1 do
        let t = draw () in
        for j = 0 to 6 do
          seq.((v * 7) + j) <- (t * 7) + j
        done
      done;
      seq)

(* sweep: cold, output-heavy scans. The session cache keys supports by
   their count cut, so "distinct" below means distinct cuts.

   Connection 0 walks the empty itemset (the only start whose answers
   reach the whole lattice) down from 2% to the primary threshold in
   passes of [pass_levels] geometric steps, each cut below the last;
   after each pass a tail of [pass_tail] rule queries pushes the widened
   entry out of the cache before the next pass climbs back up. Each
   connection walks its own popular singletons the same way, one
   singleton at a time in a seed-shuffled order, so the mix of answer
   sizes is the same in every second of the stream. Rule queries take
   (minsup, minconf) pairs that never repeat. *)
let pass_levels = 12
let pass_tail = 150
let singles_per_client = 96

(* Requests per connection in one pass. *)
let pass_len = (3 * pass_levels) + pass_tail

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Cut [i] of a walk from [top] down to [low] in [pass_levels]
   geometric steps, on a grid shifted by a golden-ratio phase per lap
   [r], so that laps do not repeat cuts. *)
let walk_cut ~top ~low r i =
  let phase = Float.rem (float r *. 0.6180339887) 1.0 in
  let x = (float i +. phase) /. float pass_levels in
  int_of_float (Float.round (float top *. Float.pow (float low /. float top) x))

let sweep_table rng engine ~reads =
  let lat = Engine.lattice engine in
  let low = lowest engine in
  let high = 10 * low in
  let passes = (reads + pass_len - 1) / pass_len in
  (* (cut, minconf) pairs at 0.5%..2% and on a grid over [0.5, 1) fine
     enough that every rule query of the stream gets its own, in random
     order, drawn without replacement *)
  let cuts = high - (high / 4) + 1 in
  let confs = ((passes * connections * pass_len) + cuts - 1) / cuts in
  let pairs =
    shuffle rng
      (Array.init (cuts * confs) (fun i -> ((high / 4) + (i / confs), i mod confs)))
  in
  let next_pair = ref 0 in
  let rule_key () =
    let cut, conf = pairs.(!next_pair) in
    incr next_pair;
    key Record.Essential_rules ~minsup:(frac engine cut)
      ~minconf:(0.5 +. (0.5 *. float conf /. float confs))
  in
  (* per connection: its singletons in walk order, how many walks it
     has started, the level and last cut of the current walk *)
  let singles = top_itemsets lat 1 (connections * singles_per_client) in
  let order client =
    shuffle rng
      (Array.of_list
         (List.filter
            (fun c -> c mod connections = client)
            (List.init (Array.length singles) Fun.id)))
  in
  let walks = Array.init connections (fun client -> (order client, ref 0, ref 0, ref max_int)) in
  let rec single_key client =
    let order, walk, level, last = walks.(client) in
    let n = Array.length order in
    let supp, x = singles.(order.(!walk mod n)) in
    let cut = min (!last - 1) (walk_cut ~top:(min supp high) ~low (!walk / n) !level) in
    if !level >= pass_levels || cut < low then begin
      incr walk;
      level := 0;
      last := max_int;
      single_key client
    end
    else begin
      incr level;
      last := cut;
      key Record.Find_itemsets ~containing:x ~minsup:(frac engine cut)
    end
  in
  let streams = Array.make connections [] in
  let push client k = streams.(client) <- k :: streams.(client) in
  for r = 0 to passes - 1 do
    let last = ref max_int in
    for i = 0 to pass_levels - 1 do
      let cut = min (!last - 1) (walk_cut ~top:high ~low r i) in
      last := cut;
      push 0 (key Record.Find_itemsets ~minsup:(frac engine (max low cut)));
      push 0 (rule_key ());
      push 0 (single_key 0)
    done;
    for _ = 1 to pass_tail do
      push 0 (rule_key ())
    done;
    for _ = 1 to pass_len do
      push 1 (if Random.State.bool rng then single_key 1 else rule_key ())
    done
  done;
  let table = ref [] and n = ref 0 in
  let clients =
    Array.map
      (fun keys ->
        Array.of_list
          (List.rev_map
             (fun k ->
               table := req_of_key k :: !table;
               incr n;
               !n - 1)
             keys))
      streams
  in
  (Array.of_list (List.rev !table), clients)

(* Small Quest-drawn batches over the same universe, one per append. *)
let deltas ~seed =
  Array.init num_deltas (fun i ->
      let params =
        Olar_datagen.Params.make
          ~over:{ Olar_datagen.Params.default with seed = (seed * 64) + i + 1 }
          ~avg_transaction_size:10.0 ~avg_itemset_size:4.0
          ~num_transactions:delta_size ()
      in
      let db = Olar_datagen.Quest.generate params in
      let rows = Database.fold (fun acc x -> Itemset.to_list x :: acc) [] db in
      req_of_key
        (key Record.Append ~delta:(List.rev rows)
           ~num_items:(Database.num_items db)))

(* The table's bodies, then each connection's index sequence, then the
   deltas: together they fix every body sent, in order. *)
let hash t =
  let h = ref Fnv.empty in
  Array.iter (fun r -> h := Fnv.string !h r.body) t.table;
  Array.iter (fun seq -> h := Array.fold_left Fnv.int (Fnv.int !h (Array.length seq)) seq) t.clients;
  Array.iter (fun d -> h := Fnv.string !h d.body) t.deltas;
  Fnv.to_hex !h

(* [seconds]: how long the clients send, warm-up included. *)
let make ~workload ~seed ~seconds engine =
  let rng = Random.State.make [| 0x0b5e; seed |] in
  let reads = int_of_float (Float.ceil (float (ceiling_qps workload) *. seconds)) in
  let table, clients =
    match workload with
    | "explore" | "ingest" ->
      (* ingest replays explore's exact read stream. The templates are
         the same for every seed, like the database: the top Zipf rank
         alone draws a sixth of the visits, so a seed-drawn catalogue
         would move us_per_item with the seed. The seed draws the
         visits. *)
      let table = explore_table (Random.State.make [| 0x0b5e; catalogue_seed |]) engine in
      (table, explore_clients rng ~reads)
    | "sweep" -> sweep_table rng engine ~reads
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let t = { table; clients; deltas = deltas ~seed; hash = "" } in
  { t with hash = hash t }
