(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 6), plus Bechamel micro-benchmarks of the core
   operations and ablations of the design choices called out in
   DESIGN.md.

     dune exec bench/main.exe                 # all experiments, D10K scale
     dune exec bench/main.exe -- --full       # paper scale (D100K)
     dune exec bench/main.exe -- --experiment fig10,table3

   Numbers to compare against the paper are the *shapes*: which curve
   wins, how the threshold bottoms out, the linearity of online time in
   output size — not 1998 wall-clock values. Machine-independent work
   counters are printed alongside times. *)

open Olar_data
module Jsonx = Olar_obs.Jsonx

let line () = print_endline (String.make 78 '-')

(* Machine-readable results (--json PATH): experiments append entries
   here; the driver assembles and writes the document at the end. *)
let json_path : string option ref = ref None
let json_experiments : (string * Jsonx.t) list ref = ref []
let record_json name doc = json_experiments := (name, doc) :: !json_experiments

let section title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Configuration *)

type config = {
  full : bool;
  num_items : int;
  transactions : int;
  budget_sweep : int list; (* itemset budgets for figs 8-9 *)
  seed : int;
  domains : int option; (* parallel counting domains for preprocessing *)
}

let default_config =
  {
    full = false;
    num_items = 1000;
    transactions = 10_000;
    budget_sweep = [ 500; 1_000; 2_000; 5_000; 10_000; 15_000 ];
    seed = 42;
    domains = None;
  }

let full_config =
  {
    full = true;
    num_items = 1000;
    transactions = 100_000;
    budget_sweep = [ 1_000; 2_000; 5_000; 10_000; 20_000; 50_000 ];
    seed = 42;
    domains = None;
  }

(* ------------------------------------------------------------------ *)
(* Dataset and engine caches (several experiments share them) *)

let db_cache : (string, Database.t) Hashtbl.t = Hashtbl.create 8

let dataset config ~t ~i =
  let params =
    {
      (Olar_datagen.Params.make ~avg_transaction_size:(float_of_int t)
         ~avg_itemset_size:(float_of_int i) ~num_transactions:config.transactions
         ())
      with
      Olar_datagen.Params.num_items = config.num_items;
      seed = config.seed;
    }
  in
  let name = Olar_datagen.Params.name params in
  match Hashtbl.find_opt db_cache name with
  | Some db -> (name, db)
  | None ->
    let db, dt = Olar_util.Timer.time (fun () -> Olar_datagen.Quest.generate params) in
    Printf.printf "[data] generated %s in %.2fs (avg transaction %.1f items)\n%!"
      name dt (Database.avg_transaction_size db);
    Hashtbl.add db_cache name db;
    (name, db)

let engine_cache : (string * float, Olar_core.Engine.t) Hashtbl.t = Hashtbl.create 8

(* Preprocessed engine over a dataset at a fractional primary support. *)
let engine config ~t ~i ~primary =
  let name, db = dataset config ~t ~i in
  match Hashtbl.find_opt engine_cache (name, primary) with
  | Some e -> e
  | None ->
    let e, dt =
      Olar_util.Timer.time (fun () ->
          Olar_core.Engine.at_threshold ?domains:config.domains db
            ~primary_support:primary)
    in
    Printf.printf
      "[prep] %s preprocessed at %.3f%%: %d itemsets, %d edges (%.2fs)\n%!" name
      (100.0 *. primary)
      (Olar_core.Engine.num_primary_itemsets e)
      (Olar_core.Lattice.num_edges (Olar_core.Engine.lattice e))
      dt;
    Hashtbl.add engine_cache (name, primary) e;
    e

(* ------------------------------------------------------------------ *)
(* Figures 8 & 9: primary threshold and preprocessing effort vs the
   number of itemsets prestored. One threshold search serves both. *)

type sweep_point = {
  budget : int;
  threshold_pct : float;
  generated : int;
  probes : int;
  work : int; (* candidates counted + hash-pruned: machine-independent *)
  seconds : float;
}

let sweep_cache : (string * int, sweep_point) Hashtbl.t = Hashtbl.create 32

let sweep_point config ~t ~i ~budget =
  let name, db = dataset config ~t ~i in
  match Hashtbl.find_opt sweep_cache (name, budget) with
  | Some p -> p
  | None ->
    let stats = Olar_mining.Stats.create () in
    let result, seconds =
      Olar_util.Timer.time (fun () ->
          Olar_mining.Threshold.optimized ~stats db ~target:budget
            ~slack:(budget / 20))
    in
    let p =
      {
        budget;
        threshold_pct =
          100.0
          *. float_of_int result.Olar_mining.Threshold.threshold
          /. float_of_int (Database.size db);
        generated = Olar_mining.Frequent.total result.Olar_mining.Threshold.itemsets;
        probes = List.length result.Olar_mining.Threshold.probes;
        work = Olar_mining.Stats.total_work stats;
        seconds;
      }
    in
    Hashtbl.add sweep_cache (name, budget) p;
    p

let fig89_datasets = [ (10, 4); (10, 6); (20, 6) ]

let fig8 config =
  List.iter (fun (t, i) -> ignore (dataset config ~t ~i)) fig89_datasets;
  section
    "Figure 8: primary threshold vs number of itemsets prestored\n\
     (threshold drops steeply, then bottoms out as the itemset space is exhausted)";
  Printf.printf "%-10s" "budget N";
  List.iter
    (fun (t, i) -> Printf.printf "%16s" (fst (dataset config ~t ~i)))
    fig89_datasets;
  print_newline ();
  List.iter
    (fun budget ->
      Printf.printf "%-10d" budget;
      List.iter
        (fun (t, i) ->
          let p = sweep_point config ~t ~i ~budget in
          Printf.printf "%15.4f%%" p.threshold_pct)
        fig89_datasets;
      print_newline ())
    config.budget_sweep

let fig9 config =
  List.iter (fun (t, i) -> ignore (dataset config ~t ~i)) fig89_datasets;
  section
    "Figure 9: preprocessing effort vs number of itemsets prestored\n\
     (effort = candidates examined by the threshold search; seconds in parens)";
  Printf.printf "%-10s" "budget N";
  List.iter
    (fun (t, i) -> Printf.printf "%22s" (fst (dataset config ~t ~i)))
    fig89_datasets;
  print_newline ();
  List.iter
    (fun budget ->
      Printf.printf "%-10d" budget;
      List.iter
        (fun (t, i) ->
          let p = sweep_point config ~t ~i ~budget in
          Printf.printf "%14d (%5.2fs)" p.work p.seconds)
        fig89_datasets;
      print_newline ())
    config.budget_sweep

(* ------------------------------------------------------------------ *)
(* Figure 10: online processing time vs number of rules generated. *)

let fig10 config =
  section
    "Figure 10: online running time vs number of rules generated\n\
     (response time and search work scale with the output, not the prestore)";
  Printf.printf "%-14s %-9s %-7s %-9s %-11s %-10s %-12s\n" "dataset" "minsup%"
    "conf%" "rules" "time (ms)" "work" "us per rule";
  let jpoints = ref [] in
  List.iter
    (fun ((t, i), primary, supports) ->
      let name, _ = dataset config ~t ~i in
      let e = engine config ~t ~i ~primary in
      let lat = Olar_core.Engine.lattice e in
      let points = ref [] in
      List.iter
        (fun minsup ->
          List.iter
            (fun minconf ->
              let work = Olar_util.Timer.Counter.create "work" in
              let rules, dt =
                Olar_util.Timer.time (fun () ->
                    Olar_core.Rulegen.essential_rules ~work lat
                      ~minsup:(Olar_core.Engine.count_of_support e minsup)
                      ~confidence:(Olar_core.Conf.of_float minconf))
              in
              points :=
                (minsup, minconf, List.length rules, dt,
                 Olar_util.Timer.Counter.value work)
                :: !points)
            [ 0.9; 0.7; 0.5 ])
        supports;
      let points =
        List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> Int.compare a b) !points
      in
      List.iter
        (fun (s, c, n, dt, w) ->
          jpoints :=
            Jsonx.Obj
              [
                ("dataset", Jsonx.Str name);
                ("minsup", Jsonx.Float s);
                ("minconf", Jsonx.Float c);
                ("rules", Jsonx.Int n);
                ("seconds", Jsonx.Float dt);
                ("work", Jsonx.Int w);
              ]
            :: !jpoints;
          Printf.printf "%-14s %-9.3f %-7.0f %-9d %-11.3f %-10d %-12.2f\n" name
            (100.0 *. s) (100.0 *. c) n (1000.0 *. dt) w
            (if n = 0 then 0.0 else 1e6 *. dt /. float_of_int n))
        points)
    [
      ((10, 4), 0.002, [ 0.006; 0.005; 0.004; 0.003; 0.0025; 0.002 ]);
      ((20, 6), 0.005, [ 0.014; 0.012; 0.01; 0.008; 0.007; 0.006 ]);
    ];
  record_json "fig10" (Jsonx.Obj [ ("points", Jsonx.Arr (List.rev !jpoints)) ])

(* ------------------------------------------------------------------ *)
(* Table 3: direct DHP-from-scratch vs online response time. *)

let table3 config =
  section
    "Table 3: response time, DHP from scratch vs online lattice queries\n\
     (the online column answers from the preprocessed lattice alone)";
  Printf.printf "%-14s %-6s %-7s %-12s %-12s %-9s %-8s\n" "dataset" "conf%"
    "sup%" "DHP (s)" "online (s)" "speedup" "rules";
  let rows =
    (* the paper's four (dataset, confidence) settings; supports keep the
       paper's 3:3:2:5 proportions, lifted so the default-scale outputs
       stay tabular (the planted patterns are denser than the authors') *)
    [ (10, 4, 0.9, 0.0045); (10, 6, 0.9, 0.0045); (20, 4, 0.9, 0.003); (20, 6, 0.9, 0.0075) ]
  in
  List.iter
    (fun (t, i, minconf, minsup) ->
      let name, db = dataset config ~t ~i in
      (* preprocess once at half the query support *)
      let e = engine config ~t ~i ~primary:(0.6 *. minsup) in
      let minsup_count = Database.count_of_fraction db minsup in
      let direct =
        Olar_baseline.Direct.query db ~minsup:minsup_count
          ~confidence:(Olar_core.Conf.of_float minconf)
      in
      let direct_s =
        direct.Olar_baseline.Direct.mining_seconds
        +. direct.Olar_baseline.Direct.rulegen_seconds
      in
      let rules, online_s =
        Olar_util.Timer.time (fun () ->
            Olar_core.Engine.essential_rules e ~minsup ~minconf)
      in
      Printf.printf "%-14s %-6.0f %-7.2f %-12.3f %-12.5f %8.0fx %-8d\n" name
        (100.0 *. minconf) (100.0 *. minsup) direct_s online_s
        (direct_s /. max 1e-9 online_s)
        (List.length rules))
    rows

(* ------------------------------------------------------------------ *)
(* Figures 11 & 12: redundancy ratio vs confidence and support. *)

let fig11 config =
  List.iter
    (fun (t, i) -> ignore (engine config ~t ~i ~primary:0.0025))
    [ (10, 4); (10, 6) ];
  section
    "Figure 11: redundancy ratio vs confidence (fixed minsup)\n\
     (total rules / essential rules; modest sensitivity to confidence)";
  let minsup = 0.005 in
  Printf.printf "%-8s" "conf%";
  List.iter
    (fun (t, i) -> Printf.printf "%28s" (fst (dataset config ~t ~i)))
    [ (10, 4); (10, 6) ];
  Printf.printf "\n%-8s%28s%28s\n" "" "total/essential (ratio)" "total/essential (ratio)";
  List.iter
    (fun conf ->
      Printf.printf "%-8.0f" (100.0 *. conf);
      List.iter
        (fun (t, i) ->
          let e = engine config ~t ~i ~primary:0.0025 in
          let r = Olar_core.Engine.redundancy e ~minsup ~minconf:conf in
          Printf.printf "%15d/%-5d (%5.2f)" r.Olar_core.Rulegen.total_rules
            r.Olar_core.Rulegen.essential_count
            r.Olar_core.Rulegen.redundancy_ratio)
        [ (10, 4); (10, 6) ];
      print_newline ())
    [ 0.95; 0.9; 0.8; 0.7; 0.6; 0.5 ]

let fig12 config =
  List.iter
    (fun (t, i) -> ignore (engine config ~t ~i ~primary:0.0025))
    [ (10, 4); (10, 6) ];
  section
    "Figure 12: redundancy ratio vs support (fixed minconf = 50%)\n\
     (redundancy is much more sensitive to support: it grows as support drops)";
  Printf.printf "%-10s" "minsup%";
  List.iter
    (fun (t, i) -> Printf.printf "%28s" (fst (dataset config ~t ~i)))
    [ (10, 4); (10, 6) ];
  Printf.printf "\n%-10s%28s%28s\n" "" "total/essential (ratio)" "total/essential (ratio)";
  List.iter
    (fun minsup ->
      Printf.printf "%-10.3f" (100.0 *. minsup);
      List.iter
        (fun (t, i) ->
          let e = engine config ~t ~i ~primary:0.0025 in
          let r = Olar_core.Engine.redundancy e ~minsup ~minconf:0.5 in
          Printf.printf "%15d/%-5d (%5.2f)" r.Olar_core.Rulegen.total_rules
            r.Olar_core.Rulegen.essential_count
            r.Olar_core.Rulegen.redundancy_ratio)
        [ (10, 4); (10, 6) ];
      print_newline ())
    [ 0.008; 0.007; 0.006; 0.005; 0.0045; 0.004 ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 4) *)

(* Ablation 1: the children-sorted-by-support invariant. The search
   normally stops scanning a child list at the first child below the
   cut; the ablated variant must examine every child. *)
let ablate_sort config =
  section
    "Ablation: early-stop on support-sorted child lists (FindItemsets)\n\
     (work = vertices expanded + child links inspected)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let search_all_children ~minsup =
    (* identical traversal, no early stop *)
    let marks = Olar_core.Lattice.fresh_marks lat in
    let stack = ref [ Olar_core.Lattice.root lat ] in
    let work = ref 0 and out = ref 0 in
    Olar_util.Bitset.add marks (Olar_core.Lattice.root lat);
    let rec loop () =
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        incr work;
        Array.iter
          (fun child ->
            incr work;
            if
              Olar_core.Lattice.support lat child >= minsup
              && not (Olar_util.Bitset.mem marks child)
            then begin
              Olar_util.Bitset.add marks child;
              incr out;
              stack := child :: !stack
            end)
          (Olar_core.Lattice.children lat v);
        loop ()
    in
    loop ();
    (!out, !work)
  in
  Printf.printf "%-10s %-9s %-14s %-14s %-8s\n" "minsup%" "output"
    "work (sorted)" "work (ablated)" "saving";
  List.iter
    (fun minsup_pct ->
      let minsup =
        Olar_core.Engine.count_of_support e (minsup_pct /. 100.0)
      in
      let work = Olar_util.Timer.Counter.create "w" in
      let out =
        Olar_core.Query.count_itemsets ~work lat ~containing:Itemset.empty ~minsup
      in
      let out_ablated, work_ablated = search_all_children ~minsup in
      assert (out = out_ablated);
      let sorted_work = Olar_util.Timer.Counter.value work in
      Printf.printf "%-10.2f %-9d %-14d %-14d %7.1f%%\n" minsup_pct out
        sorted_work work_ablated
        (100.0 *. (1.0 -. (float_of_int sorted_work /. float_of_int work_ablated))))
    [ 1.0; 0.5; 0.3; 0.2 ]

(* Ablation 2: boundary memoisation during essential-rule generation.
   The ablated variant recomputes each child boundary for every parent. *)
let ablate_cache config =
  section
    "Ablation: boundary caching in essential-rule generation\n\
     (the child boundary is reused for rule output and parent pruning)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let uncached ~minsup ~confidence =
    let large =
      Olar_core.Query.find_itemsets lat ~containing:Itemset.empty ~minsup
    in
    let n = ref 0 in
    List.iter
      (fun x ->
        if Olar_core.Lattice.cardinal lat x >= 2 then begin
          let own =
            Olar_core.Boundary.find_boundary lat ~target:x ~confidence
          in
          if own <> [] then begin
            let pruned = Hashtbl.create 16 in
            Array.iter
              (fun child ->
                if Olar_core.Lattice.support lat child >= minsup then
                  List.iter
                    (fun y -> Hashtbl.replace pruned y ())
                    (Olar_core.Boundary.find_boundary lat ~target:child
                       ~confidence))
              (Olar_core.Lattice.children lat x);
            List.iter (fun y -> if not (Hashtbl.mem pruned y) then incr n) own
          end
        end)
      large;
    !n
  in
  Printf.printf "%-10s %-8s %-14s %-16s\n" "minsup%" "rules" "cached (ms)"
    "uncached (ms)";
  List.iter
    (fun minsup_pct ->
      let minsup = Olar_core.Engine.count_of_support e (minsup_pct /. 100.0) in
      let confidence = Olar_core.Conf.of_float 0.5 in
      let rules, cached_s =
        Olar_util.Timer.time (fun () ->
            Olar_core.Rulegen.essential_rules lat ~minsup ~confidence)
      in
      let n, uncached_s =
        Olar_util.Timer.time (fun () -> uncached ~minsup ~confidence)
      in
      assert (n = List.length rules);
      Printf.printf "%-10.2f %-8d %-14.2f %-16.2f\n" minsup_pct n
        (1000.0 *. cached_s) (1000.0 *. uncached_s))
    [ 0.5; 0.3; 0.2 ]

(* Ablation 3: DHP's hash filter and trimming vs plain Apriori as the
   preprocessing subroutine. *)
let ablate_miner config =
  section
    "Ablation: DHP hash filtering + trimming vs plain Apriori (preprocessing)";
  Printf.printf "%-14s %-10s %-12s %-12s %-12s %-12s\n" "dataset" "minsup%"
    "apriori (s)" "dhp (s)" "cand (apr)" "cand (dhp)";
  List.iter
    (fun ((t, i), minsup_pct) ->
      let name, db = dataset config ~t ~i in
      let minsup = Database.count_of_fraction db (minsup_pct /. 100.0) in
      let sa = Olar_mining.Stats.create () and sd = Olar_mining.Stats.create () in
      let fa, ta =
        Olar_util.Timer.time (fun () -> Olar_mining.Apriori.mine ~stats:sa db ~minsup)
      in
      let fd, td =
        Olar_util.Timer.time (fun () -> Olar_mining.Dhp.mine ~stats:sd db ~minsup)
      in
      assert (Olar_mining.Frequent.total fa = Olar_mining.Frequent.total fd);
      Printf.printf "%-14s %-10.2f %-12.2f %-12.2f %-12d %-12d\n" name minsup_pct
        ta td
        (Olar_util.Timer.Counter.value sa.Olar_mining.Stats.candidates)
        (Olar_util.Timer.Counter.value sd.Olar_mining.Stats.candidates))
    [ ((10, 4), 0.2); ((10, 6), 0.2); ((20, 6), 0.3) ]

(* ------------------------------------------------------------------ *)
(* Scaling: the online claim of contribution (1) — response time is
   independent of the size of the transaction data. The direct approach
   scans the database per query; the lattice query does not. *)

let scaling config =
  section
    "Scaling: online response vs database size (fixed support fractions)\n\
     (direct mining grows with |D|; the online query tracks only its output)";
  Printf.printf "%-10s %-9s %-11s %-12s %-13s %-9s\n" "txns" "prep (s)"
    "direct (s)" "online (ms)" "rules" "us/rule";
  let sizes =
    if config.full then [ 20_000; 50_000; 100_000; 200_000 ]
    else [ 2_000; 5_000; 10_000; 20_000 ]
  in
  List.iter
    (fun transactions ->
      let params =
        {
          (Olar_datagen.Params.make ~avg_transaction_size:10.0
             ~avg_itemset_size:4.0 ~num_transactions:transactions ())
          with
          Olar_datagen.Params.num_items = config.num_items;
          seed = config.seed;
        }
      in
      let db = Olar_datagen.Quest.generate params in
      let engine, prep_s =
        Olar_util.Timer.time (fun () ->
            Olar_core.Engine.at_threshold ?domains:config.domains db
              ~primary_support:0.003)
      in
      let minsup = 0.005 and minconf = 0.9 in
      let direct, direct_s =
        Olar_util.Timer.time (fun () ->
            Olar_mining.Dhp.mine db
              ~minsup:(Database.count_of_fraction db minsup))
      in
      ignore direct;
      let rules, online_s =
        Olar_util.Timer.time (fun () ->
            Olar_core.Engine.essential_rules engine ~minsup ~minconf)
      in
      let n = List.length rules in
      Printf.printf "%-10d %-9.2f %-11.3f %-13.3f %-13d %-9.2f\n" transactions
        prep_s direct_s (1000.0 *. online_s) n
        (if n = 0 then 0.0 else 1e6 *. online_s /. float_of_int n))
    sizes

(* Two-pass miners vs the level-wise ones: all four produce identical
   output; they differ in passes and candidate volume. *)

let miners config =
  section
    "Miners: Apriori vs DHP vs Partition vs Sampling vs FP-Growth\n\
     (identical outputs; time, passes and candidate counts differ)";
  Printf.printf "%-14s %-10s %-11s %-9s %-12s %-10s\n" "dataset" "miner"
    "time (s)" "passes" "candidates" "frequent";
  List.iter
    (fun ((t, i), minsup_pct) ->
      let name, db = dataset config ~t ~i in
      let minsup = Database.count_of_fraction db (minsup_pct /. 100.0) in
      let expected = ref (-1) in
      List.iter
        (fun (label, run) ->
          let stats = Olar_mining.Stats.create () in
          let frequent, seconds = Olar_util.Timer.time (fun () -> run stats) in
          let total = Olar_mining.Frequent.total frequent in
          if !expected < 0 then expected := total;
          assert (total = !expected);
          Printf.printf "%-14s %-10s %-11.2f %-9d %-12d %-10d\n" name label
            seconds
            (Olar_util.Timer.Counter.value stats.Olar_mining.Stats.passes)
            (Olar_util.Timer.Counter.value stats.Olar_mining.Stats.candidates)
            total)
        [
          ("apriori", fun stats -> Olar_mining.Apriori.mine ~stats db ~minsup);
          ("dhp", fun stats -> Olar_mining.Dhp.mine ~stats db ~minsup);
          ("partition", fun stats -> Olar_mining.Partition.mine ~stats db ~minsup);
          ( "sampling",
            fun stats ->
              (Olar_mining.Sampling.mine ~stats ~seed:config.seed db ~minsup)
                .Olar_mining.Sampling.result );
          ("fpgrowth", fun stats -> Olar_mining.Fpgrowth.mine ~stats db ~minsup);
        ])
    [ ((10, 4), 0.3); ((10, 6), 0.3) ]

(* Ablation: FindSupport's best-first search vs enumerate-everything-
   and-sort. The heap answers top-k touching only slightly more than the
   k strongest vertices; the naive route must materialise the whole
   reachable set. *)
let ablate_bestfirst config =
  section
    "Ablation: FindSupport best-first vs enumerate-and-sort (top-k query)\n\
     (work = vertices + links touched; lattice holds every primary itemset)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  Printf.printf "lattice: %d itemsets\n" (Olar_core.Lattice.num_vertices lat - 1);
  Printf.printf "%-8s %-18s %-18s %-10s\n" "k" "work (best-first)"
    "work (enumerate)" "saving";
  List.iter
    (fun k ->
      let work = Olar_util.Timer.Counter.create "w" in
      let answer =
        Olar_core.Support_query.find_support ~work lat
          ~containing:Olar_data.Itemset.empty ~k
      in
      assert (List.length answer.Olar_core.Support_query.itemsets = k);
      let best_first = Olar_util.Timer.Counter.value work in
      (* the naive route: touch everything, sort, take k *)
      let work_all = Olar_util.Timer.Counter.create "w" in
      let all =
        Olar_core.Query.find_itemsets ~work:work_all lat
          ~containing:Olar_data.Itemset.empty
          ~minsup:(Olar_core.Lattice.threshold lat)
      in
      ignore (List.filteri (fun i _ -> i < k) all);
      let enumerate = Olar_util.Timer.Counter.value work_all in
      Printf.printf "%-8d %-18d %-18d %8.1f%%\n" k best_first enumerate
        (100.0 *. (1.0 -. (float_of_int best_first /. float_of_int enumerate))))
    [ 10; 100; 1000; 5000 ]

(* Ablation 4: counting structure — prefix trie vs the original Apriori
   hash tree. Same counts by construction; different memory traffic. *)
let ablate_counting config =
  section
    "Ablation: candidate counting, prefix trie vs hash tree\n\
     (level-2 candidates of T10.I4 counted over the whole database)";
  let _, db = dataset config ~t:10 ~i:4 in
  let minsup = Database.count_of_fraction db 0.002 in
  let l1 =
    let freq = Database.item_frequencies db in
    let out = ref [] in
    Array.iteri (fun i c -> if c >= minsup then out := i :: !out) freq;
    Array.of_list (List.sort Int.compare !out)
  in
  let candidates = Olar_mining.Candidate.pairs_of_items l1 in
  Printf.printf "%d frequent items -> %d candidate pairs\n" (Array.length l1)
    (Array.length candidates);
  let time_trie () =
    let trie = Olar_mining.Trie.create ~depth:2 in
    Array.iter (Olar_mining.Trie.insert trie) candidates;
    let _, dt =
      Olar_util.Timer.time (fun () ->
          Database.iter (Olar_mining.Trie.count_transaction trie) db)
    in
    (Olar_mining.Trie.to_sorted_array trie, dt)
  in
  let time_hashtree () =
    let tree = Olar_mining.Hashtree.create ~fanout:128 ~leaf_capacity:32 ~depth:2 () in
    Array.iter (Olar_mining.Hashtree.insert tree) candidates;
    let _, dt =
      Olar_util.Timer.time (fun () ->
          Database.iter (Olar_mining.Hashtree.count_transaction tree) db)
    in
    (Olar_mining.Hashtree.to_sorted_array tree, dt)
  in
  let trie_counts, trie_s = time_trie () in
  let tree_counts, tree_s = time_hashtree () in
  assert (trie_counts = tree_counts);
  Printf.printf "prefix trie: %.3fs   hash tree: %.3fs   (identical counts)\n"
    trie_s tree_s

(* ------------------------------------------------------------------ *)
(* Query throughput: FindItemsets queries/second over a T10.I4-style
   dataset. The scenario that motivates the CSR lattice layout: a long
   interactive session hammering the same preprocessed lattice with
   point and scan queries. Run it before and after a layout change and
   compare the qps columns. *)

let qps_scenarios e lat =
  (* one shared scratch: the steady state of a long-lived session *)
  let scratch = Olar_core.Scratch.create lat in
  (* primary singletons, reused round-robin for the targeted mix *)
  let singles = Olar_util.Vec.create () in
  Olar_core.Lattice.iter_vertices
    (fun v ->
      if Olar_core.Lattice.cardinal lat v = 1 then Olar_util.Vec.push singles v)
    lat;
  let single k =
    Olar_core.Lattice.itemset lat
      (Olar_util.Vec.get singles (k mod Olar_util.Vec.length singles))
  in
  let minsup_of pct = Olar_core.Engine.count_of_support e (pct /. 100.0) in
  (* Each scenario takes an optional work counter: omitted in the
     throughput loop (the None fast path, identical to a bare call),
     supplied in the latency pass so the JSON report carries
     machine-independent work next to the quantiles. *)
  [
    ( "count broad 0.5%",
      fun ?work k ->
        ignore k;
        ignore
          (Olar_core.Query.count_itemsets ?work ~scratch lat
             ~containing:Itemset.empty ~minsup:(minsup_of 0.5)) );
    ( "find broad 0.25%",
      fun ?work k ->
        ignore k;
        ignore
          (Olar_core.Query.find_itemsets ?work ~scratch lat
             ~containing:Itemset.empty ~minsup:(minsup_of 0.25)) );
    ( "find targeted",
      fun ?work k ->
        ignore
          (Olar_core.Query.find_itemsets ?work ~scratch lat
             ~containing:(single k)
             ~minsup:(Olar_core.Lattice.threshold lat)) );
    ( "top-100 support",
      fun ?work k ->
        ignore
          (Olar_core.Support_query.find_support ?work ~scratch lat
             ~containing:(single k) ~k:100) );
  ]

let qps config =
  section
    "Throughput: online queries/second on one preprocessed lattice\n\
     (the hot loop of an interactive mining session; higher is better)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  Printf.printf "lattice: %d vertices, %d edges, ~%d KiB\n"
    (Olar_core.Lattice.num_vertices lat)
    (Olar_core.Lattice.num_edges lat)
    (Olar_core.Lattice.estimated_bytes lat / 1024);
  Printf.printf "%-20s %-12s %-12s %-14s\n" "scenario" "queries" "seconds" "qps";
  let jscenarios = ref [] in
  List.iter
    (fun (name, (run : ?work:Olar_util.Timer.Counter.t -> int -> unit)) ->
      (* warm up, then measure for a fixed wall budget *)
      for k = 0 to 9 do
        run k
      done;
      let budget = 1.0 in
      let timer = Olar_util.Timer.start () in
      let queries = ref 0 in
      while Olar_util.Timer.elapsed_s timer < budget do
        (* batch between clock reads to keep clock overhead negligible *)
        for k = 0 to 19 do
          run (!queries + k)
        done;
        queries := !queries + 20
      done;
      let dt = Olar_util.Timer.elapsed_s timer in
      Printf.printf "%-20s %-12d %-12.3f %-14.0f\n" name !queries dt
        (float_of_int !queries /. dt);
      (* Separate latency pass: per-query timing into a log-scale
         histogram, with the work counter attached. Kept out of the
         throughput loop above so the clock reads there stay batched. *)
      let hist = Olar_obs.Metrics.Histogram.create "latency" in
      let work = Olar_util.Timer.Counter.create "work" in
      let lat_budget = 0.3 in
      let ltimer = Olar_util.Timer.start () in
      let samples = ref 0 in
      while Olar_util.Timer.elapsed_s ltimer < lat_budget do
        let t0 = Olar_util.Timer.start () in
        run ~work !samples;
        Olar_obs.Metrics.Histogram.observe hist (Olar_util.Timer.elapsed_s t0);
        incr samples
      done;
      let q p = 1e6 *. Olar_obs.Metrics.Histogram.quantile hist p in
      jscenarios :=
        Jsonx.Obj
          [
            ("name", Jsonx.Str name);
            ("queries", Jsonx.Int !queries);
            ("seconds", Jsonx.Float dt);
            ("qps", Jsonx.Float (float_of_int !queries /. dt));
            ( "latency",
              Jsonx.Obj
                [
                  ("samples", Jsonx.Int (Olar_obs.Metrics.Histogram.count hist));
                  ( "mean_us",
                    Jsonx.Float (1e6 *. Olar_obs.Metrics.Histogram.mean hist) );
                  ("p50_us", Jsonx.Float (q 0.5));
                  ("p90_us", Jsonx.Float (q 0.9));
                  ("p99_us", Jsonx.Float (q 0.99));
                ] );
            ( "work",
              Jsonx.Obj
                [
                  ("total", Jsonx.Int (Olar_util.Timer.Counter.value work));
                  ( "per_query",
                    Jsonx.Float
                      (float_of_int (Olar_util.Timer.Counter.value work)
                      /. float_of_int (max 1 !samples)) );
                ] );
          ]
        :: !jscenarios)
    (qps_scenarios e lat);
  record_json "qps"
    (Jsonx.Obj
       [
         ( "lattice",
           Jsonx.Obj
             [
               ("vertices", Jsonx.Int (Olar_core.Lattice.num_vertices lat));
               ("edges", Jsonx.Int (Olar_core.Lattice.num_edges lat));
               ("bytes", Jsonx.Int (Olar_core.Lattice.estimated_bytes lat));
             ] );
         ("scenarios", Jsonx.Arr (List.rev !jscenarios));
       ])

(* ------------------------------------------------------------------ *)
(* Session cache: Zipf-repeated interactive query streams, cached vs
   uncached. An analyst re-issues a handful of favourite (minsup,
   minconf) settings with a skewed repeat distribution; the session
   cache (lib/serve) answers repeats from cached canonical-order
   prefixes instead of re-walking the lattice. Both sides run through
   Olar_serve.Session — budget 0 is the contract-identical
   passthrough — so the comparison isolates the cache itself. *)

let session_bench config =
  section
    "Session cache: Zipf-repeated query streams, cached vs uncached\n\
     (lib/serve; repeats served by prefix refinement, not re-traversal)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  (* Fixed pre-drawn streams so the cached and uncached runs replay the
     identical query sequence. Setting rank r is drawn with Zipf weight
     1/(r+1): a few favourites dominate, the tail recurs rarely. *)
  let stream_len = 4096 in
  let zipf_stream st settings =
    let n = Array.length settings in
    let cum = Array.make n 0.0 in
    let total = ref 0.0 in
    for r = 0 to n - 1 do
      total := !total +. (1.0 /. float_of_int (r + 1));
      cum.(r) <- !total
    done;
    Array.init stream_len (fun _ ->
        let u = Random.State.float st !total in
        let rec pick r =
          if r = n - 1 || u <= cum.(r) then settings.(r) else pick (r + 1)
        in
        pick 0)
  in
  let rng = Random.State.make [| config.seed; 0x5355 |] in
  let find_stream =
    zipf_stream rng [| 0.004; 0.0025; 0.005; 0.003; 0.0075; 0.01 |]
  in
  let rule_stream =
    zipf_stream rng
      (Array.of_list
         (List.concat_map
            (fun s -> List.map (fun c -> (s, c)) [ 0.9; 0.7; 0.5 ])
            [ 0.0075; 0.005; 0.01 ]))
  in
  let scenarios =
    [
      ( "find broad",
        fun session k ->
          let minsup = find_stream.(k land (stream_len - 1)) in
          ignore (Olar_serve.Session.itemset_ids session ~minsup) );
      ( "rules",
        fun session k ->
          let minsup, minconf = rule_stream.(k land (stream_len - 1)) in
          ignore (Olar_serve.Session.essential_rules session ~minsup ~minconf)
      );
    ]
  in
  (* Same measurement discipline as the qps experiment: warm up, then a
     fixed wall budget with clock reads batched every 20 queries. *)
  let measure session run =
    for k = 0 to 9 do
      run session k
    done;
    let budget = 1.0 in
    let timer = Olar_util.Timer.start () in
    let queries = ref 0 in
    while Olar_util.Timer.elapsed_s timer < budget do
      for k = 0 to 19 do
        run session (!queries + k)
      done;
      queries := !queries + 20
    done;
    let dt = Olar_util.Timer.elapsed_s timer in
    (!queries, dt, float_of_int !queries /. dt)
  in
  Printf.printf "%-12s %-14s %-14s %-10s %-24s\n" "scenario" "uncached qps"
    "cached qps" "speedup" "cache hit/refine/miss";
  let jscenarios = ref [] in
  List.iter
    (fun (name, run) ->
      let uncached = Olar_serve.Session.create ~budget_bytes:0 e in
      let ((_, _, uq) as u) = measure uncached run in
      let cached =
        Olar_serve.Session.create ~budget_bytes:(32 * 1024 * 1024) e
      in
      let ((_, _, cq) as c) = measure cached run in
      let s = Olar_serve.Session.stats cached in
      let open Olar_serve.Session in
      Printf.printf "%-12s %-14.0f %-14.0f %8.1fx  %d/%d/%d\n" name uq cq
        (cq /. uq) s.hits s.refines s.misses;
      let side (queries, seconds, qps) =
        Jsonx.Obj
          [
            ("queries", Jsonx.Int queries);
            ("seconds", Jsonx.Float seconds);
            ("qps", Jsonx.Float qps);
          ]
      in
      jscenarios :=
        Jsonx.Obj
          [
            ("name", Jsonx.Str name);
            ("uncached", side u);
            ("cached", side c);
            ("speedup", Jsonx.Float (cq /. uq));
            ( "cache",
              Jsonx.Obj
                [
                  ("hits", Jsonx.Int s.hits);
                  ("misses", Jsonx.Int s.misses);
                  ("refines", Jsonx.Int s.refines);
                  ("evictions", Jsonx.Int s.evictions);
                  ("resident_bytes", Jsonx.Int s.resident_bytes);
                ] );
          ]
        :: !jscenarios)
    scenarios;
  record_json "session"
    (Jsonx.Obj [ ("scenarios", Jsonx.Arr (List.rev !jscenarios)) ])

(* ------------------------------------------------------------------ *)
(* Concurrent serving: the same queries fanned across a Pool of 1, 2,
   4 and 8 domains sharing one immutable lattice, each domain with a
   private scratch/session. Aggregate throughput plus per-request p99
   from the pool's own service-latency clock. Caches are off (budget
   0) so the scaling measured is raw query execution, not hit rate.
   Speedup is bounded by physical cores — on a 1-core container every
   domain count measures the same serialized throughput minus
   scheduling overhead. *)

let concurrent config =
  section
    "Concurrent serving: aggregate qps + p99 across a domain pool\n\
     (one shared CSR lattice, per-domain scratch/session; lib/serve Pool)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let singles = Olar_util.Vec.create () in
  Olar_core.Lattice.iter_vertices
    (fun v ->
      if Olar_core.Lattice.cardinal lat v = 1 then Olar_util.Vec.push singles v)
    lat;
  let single k =
    Olar_core.Lattice.itemset lat
      (Olar_util.Vec.get singles (k mod Olar_util.Vec.length singles))
  in
  let batch_len = 64 in
  let find_broad =
    Array.init batch_len (fun _ ->
        Olar_serve.Pool.Find_itemsets
          { containing = Itemset.empty; minsup = 0.0025 })
  in
  let mixed =
    Array.init batch_len (fun k ->
        match k mod 4 with
        | 0 ->
          Olar_serve.Pool.Find_itemsets
            { containing = single k; minsup = 0.002 }
        | 1 ->
          Olar_serve.Pool.Count_itemsets
            { containing = Itemset.empty; minsup = 0.005 }
        | 2 ->
          Olar_serve.Pool.Single_consequent_rules
            { containing = Itemset.empty; minsup = 0.0075; minconf = 0.5 }
        | _ ->
          Olar_serve.Pool.Support_for_k_itemsets
            { containing = single k; k = 100 })
  in
  let measure pool batch =
    ignore (Olar_serve.Pool.run pool batch);
    let hist = Olar_obs.Metrics.Histogram.create "service_latency" in
    let budget = 1.0 in
    let timer = Olar_util.Timer.start () in
    let queries = ref 0 in
    while Olar_util.Timer.elapsed_s timer < budget do
      Array.iter
        (fun req ->
          Olar_serve.Pool.submit pool req (fun _ c ->
              Olar_obs.Metrics.Histogram.observe hist c.Olar_serve.Pool.latency_s))
        batch;
      Olar_serve.Pool.drain pool;
      queries := !queries + Array.length batch
    done;
    let dt = Olar_util.Timer.elapsed_s timer in
    (!queries, dt, hist)
  in
  Printf.printf "%-18s %-8s %-10s %-12s %-10s %-10s %-8s\n" "scenario" "domains"
    "queries" "qps" "p99 us" "mean us" "vs 1";
  let jscenarios = ref [] in
  List.iter
    (fun (name, batch) ->
      let base = ref 0.0 in
      let jpoints = ref [] in
      List.iter
        (fun d ->
          let queries, dt, hist =
            Olar_serve.Pool.with_pool ~domains:d ~budget_bytes:0 e (fun pool ->
                measure pool batch)
          in
          let qps = float_of_int queries /. dt in
          if d = 1 then base := qps;
          let q p = 1e6 *. Olar_obs.Metrics.Histogram.quantile hist p in
          Printf.printf "%-18s %-8d %-10d %-12.0f %-10.0f %-10.1f %6.2fx\n"
            name d queries qps (q 0.99)
            (1e6 *. Olar_obs.Metrics.Histogram.mean hist)
            (qps /. !base);
          jpoints :=
            Jsonx.Obj
              [
                ("domains", Jsonx.Int d);
                ("queries", Jsonx.Int queries);
                ("seconds", Jsonx.Float dt);
                ("qps", Jsonx.Float qps);
                ("speedup_vs_1", Jsonx.Float (qps /. !base));
                ( "latency",
                  Jsonx.Obj
                    [
                      ( "samples",
                        Jsonx.Int (Olar_obs.Metrics.Histogram.count hist) );
                      ( "mean_us",
                        Jsonx.Float
                          (1e6 *. Olar_obs.Metrics.Histogram.mean hist) );
                      ("p50_us", Jsonx.Float (q 0.5));
                      ("p90_us", Jsonx.Float (q 0.9));
                      ("p99_us", Jsonx.Float (q 0.99));
                    ] );
              ]
            :: !jpoints)
        [ 1; 2; 4; 8 ];
      jscenarios :=
        Jsonx.Obj
          [
            ("name", Jsonx.Str name);
            ("batch", Jsonx.Int batch_len);
            ("points", Jsonx.Arr (List.rev !jpoints));
          ]
        :: !jscenarios)
    [ ("find broad 0.25%", find_broad); ("mixed", mixed) ];
  record_json "concurrent"
    (Jsonx.Obj
       [
         ( "recommended_domains",
           Jsonx.Int (Domain.recommended_domain_count ()) );
         ("scenarios", Jsonx.Arr (List.rev !jscenarios));
       ])

(* ------------------------------------------------------------------ *)
(* Append latency: read service under a live append stream. The old
   pool quiesced on every append — a fold stalled every in-flight
   reader behind a barrier. Snapshot publication folds the delta off
   to the side and swaps a pointer, so a read's wall-clock latency
   (submit to completion) should stay put while appends stream
   through. Two phases over the same closed loop of raw [Pool.submit]
   reads with no drains: a baseline without appends, then the same
   loop with a small Append folded after every [append_every] reads.
   compare_json holds both phases' read p99 against the recorded
   BENCH_T10I4.json values. *)

let append_bench config =
  section
    "Append latency: read p99 under a live append stream\n\
     (RCU snapshot publication; raw Pool.submit, no drains)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let _, db = dataset config ~t:10 ~i:4 in
  let lat = Olar_core.Engine.lattice e in
  let singles = Olar_util.Vec.create () in
  Olar_core.Lattice.iter_vertices
    (fun v ->
      if Olar_core.Lattice.cardinal lat v = 1 then Olar_util.Vec.push singles v)
    lat;
  let single k =
    Olar_core.Lattice.itemset lat
      (Olar_util.Vec.get singles (k mod Olar_util.Vec.length singles))
  in
  let read k =
    match k mod 4 with
    | 0 ->
      Olar_serve.Pool.Find_itemsets { containing = single k; minsup = 0.002 }
    | 1 ->
      Olar_serve.Pool.Count_itemsets
        { containing = Itemset.empty; minsup = 0.005 }
    | 2 ->
      Olar_serve.Pool.Single_consequent_rules
        { containing = Itemset.empty; minsup = 0.0075; minconf = 0.5 }
    | _ ->
      Olar_serve.Pool.Support_for_k_itemsets { containing = single k; k = 100 }
  in
  let rng = Random.State.make [| config.seed; 0xa99e |] in
  let delta () =
    let rows =
      List.init 5 (fun _ -> Itemset.to_list (single (Random.State.int rng 4096)))
    in
    Database.of_lists ~num_items:(Database.num_items db) rows
  in
  let domains = max 1 (min 4 (Domain.recommended_domain_count ())) in
  let append_every = 500 in
  let cap = 1 lsl 18 in
  (* One phase. Wall-clock latency per read is captured from submit in
     the callback's closure; callbacks run on whichever domain executed
     the request, so each writes its own pre-assigned slot and the
     histogram is folded after the drain. *)
  let phase ~with_appends pool =
    let lats = Array.make cap 0.0 in
    let budget = 1.0 in
    let timer = Olar_util.Timer.start () in
    let submitted = ref 0 in
    let appends = ref 0 in
    let promoted = ref 0 in
    while Olar_util.Timer.elapsed_s timer < budget && !submitted < cap do
      let idx = !submitted in
      let t0 = Olar_util.Timer.elapsed_s timer in
      Olar_serve.Pool.submit pool (read idx) (fun _ _ ->
          lats.(idx) <- Olar_util.Timer.elapsed_s timer -. t0);
      incr submitted;
      if with_appends && !submitted mod append_every = 0 then begin
        incr appends;
        (* folds inline on the coordinator; reads already submitted
           keep executing on the old snapshot meanwhile *)
        Olar_serve.Pool.submit pool
          (Olar_serve.Pool.Append (delta ()))
          (fun resp _ ->
            match resp with
            | Olar_serve.Pool.R_promoted _ -> incr promoted
            | _ -> ())
      end
    done;
    Olar_serve.Pool.drain pool;
    let dt = Olar_util.Timer.elapsed_s timer in
    let hist = Olar_obs.Metrics.Histogram.create "read_latency" in
    for i = 0 to !submitted - 1 do
      Olar_obs.Metrics.Histogram.observe hist lats.(i)
    done;
    (!submitted, dt, hist, !appends, !promoted)
  in
  let run_phase ~with_appends =
    Olar_serve.Pool.with_pool ~domains ~budget_bytes:0 e (fun pool ->
        let r = phase ~with_appends pool in
        let gen = Olar_serve.Pool.generation pool in
        (r, gen))
  in
  let (bq, bdt, bh, _, _), _ = run_phase ~with_appends:false in
  let (dq, ddt, dh, da, dp), dgen = run_phase ~with_appends:true in
  let q hist p = 1e6 *. Olar_obs.Metrics.Histogram.quantile hist p in
  let bp99 = q bh 0.99 and dp99 = q dh 0.99 in
  let ratio = if bp99 > 0.0 then dp99 /. bp99 else 0.0 in
  Printf.printf "%-22s %-10s %-12s %-10s %-10s %-9s\n" "phase" "reads" "qps"
    "p50 us" "p99 us" "appends";
  Printf.printf "%-22s %-10d %-12.0f %-10.1f %-10.1f %-9s\n" "baseline" bq
    (float_of_int bq /. bdt)
    (q bh 0.5) bp99 "-";
  Printf.printf "%-22s %-10d %-12.0f %-10.1f %-10.1f %d (%d ok)\n"
    "during appends" dq
    (float_of_int dq /. ddt)
    (q dh 0.5) dp99 da dp;
  Printf.printf "read p99 during appends / baseline: %.2fx (%d generations)\n"
    ratio dgen;
  let side (queries, dt, hist, _, _) =
    Jsonx.Obj
      [
        ("queries", Jsonx.Int queries);
        ("seconds", Jsonx.Float dt);
        ("qps", Jsonx.Float (float_of_int queries /. dt));
        ( "latency",
          Jsonx.Obj
            [
              ("samples", Jsonx.Int (Olar_obs.Metrics.Histogram.count hist));
              ("mean_us", Jsonx.Float (1e6 *. Olar_obs.Metrics.Histogram.mean hist));
              ("p50_us", Jsonx.Float (q hist 0.5));
              ("p90_us", Jsonx.Float (q hist 0.9));
              ("p99_us", Jsonx.Float (q hist 0.99));
            ] );
      ]
  in
  record_json "append"
    (Jsonx.Obj
       [
         ("domains", Jsonx.Int domains);
         ("append_every", Jsonx.Int append_every);
         ("baseline", side (bq, bdt, bh, 0, 0));
         ("during", side (dq, ddt, dh, da, dp));
         ("appends", Jsonx.Int da);
         ("promoted", Jsonx.Int dp);
         ("generations", Jsonx.Int dgen);
         ("p99_ratio", Jsonx.Float ratio);
       ])

(* ------------------------------------------------------------------ *)
(* Network serving: closed-loop loopback HTTP clients against an
   in-process olar serve (lib/net). Where the concurrent experiment
   measures raw pool rounds, this one measures the whole wire path —
   socket, HTTP parse, admission queue, coalesced pool round, JSON
   response — which is what a deployment actually observes. Clients
   draw query bodies from Zipf-skewed streams (an analyst's favourite
   settings dominating); sheds (429/503) are counted in the report but
   not expected at these loads. *)

let serve_bench config =
  section
    "Network serving: loopback HTTP clients against olar serve\n\
     (end-to-end wire qps: socket + HTTP + admission queue + pool)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let singles = Olar_util.Vec.create () in
  Olar_core.Lattice.iter_vertices
    (fun v ->
      if Olar_core.Lattice.cardinal lat v = 1 then Olar_util.Vec.push singles v)
    lat;
  let single_json k =
    let x =
      Olar_core.Lattice.itemset lat
        (Olar_util.Vec.get singles (k mod Olar_util.Vec.length singles))
    in
    "[" ^ String.concat "," (List.map string_of_int (Itemset.to_list x)) ^ "]"
  in
  (* pre-drawn body streams, Zipf weight 1/(r+1) over setting ranks as
     in the session experiment *)
  let stream_len = 1024 in
  let zipf_bodies st make n_settings =
    let cum = Array.make n_settings 0.0 in
    let total = ref 0.0 in
    for r = 0 to n_settings - 1 do
      total := !total +. (1.0 /. float_of_int (r + 1));
      cum.(r) <- !total
    done;
    Array.init stream_len (fun i ->
        let u = Random.State.float st !total in
        let rec pick r =
          if r = n_settings - 1 || u <= cum.(r) then r else pick (r + 1)
        in
        make (pick 0) i)
  in
  let rng = Random.State.make [| config.seed; 0x53e7 |] in
  let counts = [| 0.004; 0.0025; 0.005; 0.003; 0.0075; 0.01 |] in
  let count_bodies =
    zipf_bodies rng
      (fun r _ -> Printf.sprintf {|{"kind":"count","minsup":%g}|} counts.(r))
      (Array.length counts)
  in
  let mixed_bodies =
    zipf_bodies rng
      (fun r i ->
        match r mod 4 with
        | 0 ->
          Printf.sprintf {|{"kind":"find","containing":%s,"minsup":0.002}|}
            (single_json i)
        | 1 -> {|{"kind":"count","minsup":0.005}|}
        | 2 ->
          {|{"kind":"single_consequent_rules","minsup":0.0075,"minconf":0.5}|}
        | _ ->
          Printf.sprintf
            {|{"kind":"support_for_k_itemsets","containing":%s,"k":100}|}
            (single_json i))
      8
  in
  let server_cfg =
    { Olar_net.Server.default_config with Olar_net.Server.port = 0 }
  in
  let run_point bodies clients =
    (* a fresh obs context per point: the server interns its phase
       histograms and windows in the engine's registry, so a shared one
       would make every point's sections cover the points before it.
       With obs on, the server also starts its eventring consumer, so
       the JSON carries the gc section next to the windows. *)
    let e = Olar_core.Engine.with_obs e (Olar_obs.Obs.create ()) in
    Olar_net.Server.with_server ~config:server_cfg ?domains:config.domains
      ~budget_bytes:0 e (fun srv ->
        let url = Olar_net.Server.url srv in
        let hist = Olar_obs.Metrics.Histogram.create "wire_latency" in
        let served = Atomic.make 0 and shed = Atomic.make 0 in
        let stop = Atomic.make false in
        let worker ci () =
          let fail e = failwith ("serve bench: " ^ e) in
          let conn =
            match Olar_net.Client.connect ~url () with
            | Ok c -> c
            | Error e -> fail e
          in
          let k = ref ci in
          while not (Atomic.get stop) do
            let body = bodies.(!k land (stream_len - 1)) in
            k := !k + clients;
            let t0 = Olar_util.Timer.start () in
            let resp =
              match
                Olar_net.Client.exchange conn ~meth:"POST" ~body "/query"
              with
              | Ok r -> r
              | Error e -> fail e
            in
            Olar_obs.Metrics.Histogram.observe hist
              (Olar_util.Timer.elapsed_s t0);
            match resp.Olar_net.Http.status with
            | 200 -> Atomic.incr served
            | 429 | 503 -> Atomic.incr shed
            | s -> fail (Printf.sprintf "status %d" s)
          done;
          Olar_net.Client.close conn
        in
        let budget = 1.0 in
        let timer = Olar_util.Timer.start () in
        let threads =
          List.init clients (fun ci -> Thread.create (worker ci) ())
        in
        Thread.delay budget;
        Atomic.set stop true;
        List.iter Thread.join threads;
        let dt = Olar_util.Timer.elapsed_s timer in
        (* scrape the per-phase latency attribution for this point from
           /statusz (a Jsonx view of olar_http_phase_seconds). The
           write phase is observed by a post-send hook that can lag the
           client's receive by a beat, so retry briefly until the write
           count has caught up with everything the clients saw served. *)
        let statusz =
          let rec scrape attempts =
            let json =
              match Olar_net.Client.get ~url "/statusz" with
              | Ok (200, body) -> (
                match Jsonx.of_string body with
                | Ok json -> json
                | Error e -> failwith ("serve bench: statusz not JSON: " ^ e))
              | Ok (s, _) ->
                failwith (Printf.sprintf "serve bench: statusz answered %d" s)
              | Error e -> failwith ("serve bench: statusz: " ^ e)
            in
            let write_count =
              match
                Option.bind
                  (Jsonx.path [ "phases"; "write"; "count" ] json)
                  Jsonx.number
              with
              | Some c -> int_of_float c
              | None -> failwith "serve bench: statusz lacks write phase"
            in
            if write_count >= Atomic.get served || attempts >= 50 then json
            else begin
              Thread.delay 0.01;
              scrape (attempts + 1)
            end
          in
          scrape 0
        in
        let statusz_section what =
          match Jsonx.member what statusz with
          | Some v -> v
          | None -> failwith ("serve bench: statusz lacks " ^ what)
        in
        ( Olar_serve.Pool.domains (Olar_net.Server.pool srv),
          Atomic.get served,
          Atomic.get shed,
          dt,
          hist,
          ( statusz_section "phases",
            statusz_section "window",
            statusz_section "gc" ) ))
  in
  Printf.printf "%-14s %-8s %-10s %-12s %-6s %-10s %-10s\n" "scenario"
    "clients" "served" "qps" "shed" "p50 us" "p99 us";
  let jscenarios = ref [] in
  let domains_seen = ref 1 in
  List.iter
    (fun (name, bodies) ->
      List.iter
        (fun clients ->
          let domains, served, shed, dt, hist, (phases, window, gc) =
            run_point bodies clients
          in
          domains_seen := domains;
          let qps = float_of_int served /. dt in
          let q p = 1e6 *. Olar_obs.Metrics.Histogram.quantile hist p in
          Printf.printf "%-14s %-8d %-10d %-12.0f %-6d %-10.0f %-10.0f\n" name
            clients served qps shed (q 0.5) (q 0.99);
          jscenarios :=
            Jsonx.Obj
              [
                ("name", Jsonx.Str name);
                ("clients", Jsonx.Int clients);
                ("queries", Jsonx.Int served);
                ("seconds", Jsonx.Float dt);
                ("qps", Jsonx.Float qps);
                ("shed", Jsonx.Int shed);
                ( "latency",
                  Jsonx.Obj
                    [
                      ( "samples",
                        Jsonx.Int (Olar_obs.Metrics.Histogram.count hist) );
                      ( "mean_us",
                        Jsonx.Float
                          (1e6 *. Olar_obs.Metrics.Histogram.mean hist) );
                      ("p50_us", Jsonx.Float (q 0.5));
                      ("p90_us", Jsonx.Float (q 0.9));
                      ("p99_us", Jsonx.Float (q 0.99));
                    ] );
                ("phases", phases);
                ("window", window);
                ("gc", gc);
              ]
            :: !jscenarios)
        [ 1; 4 ])
    [ ("count broad", count_bodies); ("mixed", mixed_bodies) ];
  record_json "serve"
    (Jsonx.Obj
       [
         ("domains", Jsonx.Int !domains_seen);
         ("scenarios", Jsonx.Arr (List.rev !jscenarios));
       ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core operations. *)

let micro config =
  section "Micro-benchmarks (Bechamel, ns per call via OLS on run count)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let probe =
    (* a primary 2-itemset to use as a lookup/search target *)
    let found = ref Itemset.empty in
    Olar_core.Lattice.iter_vertices
      (fun v ->
        if Itemset.is_empty !found && Olar_core.Lattice.cardinal lat v = 2 then
          found := Olar_core.Lattice.itemset lat v)
      lat;
    !found
  in
  let deep =
    (* the highest-support vertex of maximal cardinality: boundary target *)
    let best = ref (Olar_core.Lattice.root lat) in
    Olar_core.Lattice.iter_vertices
      (fun v ->
        if
          Olar_core.Lattice.cardinal lat v > Olar_core.Lattice.cardinal lat !best
          || Olar_core.Lattice.cardinal lat v = Olar_core.Lattice.cardinal lat !best
             && Olar_core.Lattice.support lat v > Olar_core.Lattice.support lat !best
        then best := v)
      lat;
    !best
  in
  let x = Itemset.of_list [ 3; 14; 26; 159; 535 ]
  and y = Itemset.of_list [ 3; 14; 159; 265; 358 ] in
  let minsup_broad = Olar_core.Engine.count_of_support e 0.002 in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"itemset.union" (Staged.stage (fun () -> Itemset.union x y));
      Test.make ~name:"itemset.subset" (Staged.stage (fun () -> Itemset.subset x y));
      Test.make ~name:"itemset.hash" (Staged.stage (fun () -> Itemset.hash x));
      Test.make ~name:"lattice.find"
        (Staged.stage (fun () -> Olar_core.Lattice.find lat probe));
      Test.make ~name:"query.find_itemsets(broad)"
        (Staged.stage (fun () ->
             Olar_core.Query.count_itemsets lat ~containing:Itemset.empty
               ~minsup:minsup_broad));
      Test.make ~name:"query.find_itemsets(targeted)"
        (Staged.stage (fun () ->
             Olar_core.Query.count_itemsets lat ~containing:probe
               ~minsup:(Olar_core.Lattice.threshold lat)));
      Test.make ~name:"boundary.find_boundary"
        (Staged.stage (fun () ->
             Olar_core.Boundary.find_boundary lat ~target:deep
               ~confidence:(Olar_core.Conf.of_float 0.7)));
      Test.make ~name:"support_query.top10"
        (Staged.stage (fun () ->
             Olar_core.Support_query.find_support lat ~containing:Itemset.empty
               ~k:10));
      Test.make ~name:"rulegen.essential(broad)"
        (Staged.stage (fun () ->
             Olar_core.Rulegen.essential_rules lat ~minsup:minsup_broad
               ~confidence:(Olar_core.Conf.of_float 0.7)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.all
        (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
        instance raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ ns ] -> Printf.printf "  %-32s %14.1f ns/call\n" name ns
        | _ -> Printf.printf "  %-32s (no estimate)\n" name)
      ols
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)
(* Driver *)

let all_experiments =
  [
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("table3", table3);
    ("fig11", fig11); ("fig12", fig12); ("scaling", scaling); ("qps", qps);
    ("session", session_bench); ("concurrent", concurrent);
    ("append", append_bench);
    ("serve", serve_bench); ("miners", miners);
    ("ablate-sort", ablate_sort);
    ("ablate-cache", ablate_cache); ("ablate-miner", ablate_miner);
    ("ablate-counting", ablate_counting); ("ablate-bestfirst", ablate_bestfirst);
    ("micro", micro);
  ]

let usage () =
  Printf.printf
    "usage: main.exe [--full] [--seed N] [--domains N] [--experiment a,b,...] \
     [--json PATH]\n";
  Printf.printf "experiments: %s, all\n"
    (String.concat ", " (List.map fst all_experiments));
  exit 1

let () =
  let config = ref default_config in
  let chosen = ref [] in
  let seed = ref None in
  let domains = ref None in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
      config := full_config;
      parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := Some n | None -> usage ());
      parse rest
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> domains := Some n
      | _ -> usage ());
      parse rest
    | "--experiment" :: names :: rest ->
      chosen := !chosen @ String.split_on_char ',' names;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--help" :: _ -> usage ()
    | arg :: _ ->
      Printf.printf "unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let config =
    match !seed with None -> !config | Some s -> { !config with seed = s }
  in
  let config =
    match !domains with None -> config | Some d -> { config with domains = Some d }
  in
  let selected =
    match !chosen with
    | [] | [ "all" ] -> all_experiments
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name all_experiments with
          | Some f -> (name, f)
          | None ->
            Printf.printf "unknown experiment %S\n" name;
            usage ())
        names
  in
  Printf.printf "olar experiment harness: scale %s (%d transactions, %d items)\n"
    (if config.full then "FULL (paper)" else "default (use --full for paper scale)")
    config.transactions config.num_items;
  let total = Olar_util.Timer.start () in
  List.iter (fun (_, f) -> f config) selected;
  Printf.printf "\ntotal: %.1fs\n" (Olar_util.Timer.elapsed_s total);
  match !json_path with
  | None -> ()
  | Some path ->
    let doc =
      Jsonx.Obj
        [
          ("schema_version", Jsonx.Int 1);
          ("scale", Jsonx.Str (if config.full then "full" else "default"));
          ("transactions", Jsonx.Int config.transactions);
          ("num_items", Jsonx.Int config.num_items);
          ("seed", Jsonx.Int config.seed);
          ("experiments", Jsonx.Obj (List.rev !json_experiments));
        ]
    in
    let oc = open_out path in
    output_string oc (Jsonx.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "[json] wrote %s\n" path
