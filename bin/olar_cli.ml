(* The olar command-line tool: generate data, preprocess it into an
   adjacency lattice, and run online queries against the lattice —
   the full "preprocess once, query many" workflow from a shell. *)

open Cmdliner
open Olar_data

let version = "1.0.0"

(* ------------------------------------------------------------------ *)
(* Shared argument converters and helpers *)

let itemset_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    try
      Ok
        (Itemset.of_list
           (List.filter_map
              (fun p ->
                let p = String.trim p in
                if p = "" then None
                else
                  match int_of_string_opt p with
                  | Some i when i >= 0 -> Some i
                  | _ -> failwith p)
              parts))
    with Failure p -> Error (`Msg (Printf.sprintf "invalid item id %S" p))
  in
  Arg.conv (parse, Itemset.pp)

let fraction_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 && f <= 1.0 -> Ok f
    | _ -> Error (`Msg "expected a fraction in (0, 1]")
  in
  Arg.conv (parse, Format.pp_print_float)

let fraction_arg ~doc names =
  Arg.(
    required & opt (some fraction_conv) None & info names ~doc ~docv:"FRACTION")

let db_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "database" ] ~doc:"Transaction database file." ~docv:"FILE")

let lattice_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "l"; "lattice" ] ~doc:"Preprocessed lattice file." ~docv:"FILE")

let containing_arg =
  Arg.(
    value
    & opt itemset_conv Itemset.empty
    & info [ "containing" ]
        ~doc:"Restrict to itemsets containing these items (e.g. 3,17,42)."
        ~docv:"ITEMS")

(* [--domains] converter: 0, negative, and unparsable counts are
   cmdliner errors (exit 124 with usage) instead of being silently
   clamped deep inside the mining layer. *)
let domains_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid domain count %S" s))
    | Some d when d <= 0 ->
      Error (`Msg (Printf.sprintf "domain count must be positive, got %d" d))
    | Some d -> Ok d
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Oversubscription is legal (the domain runtime time-slices) but
   usually slower; warn rather than reject. *)
let warn_domains = function
  | Some d when d > Domain.recommended_domain_count () ->
    Format.eprintf
      "olar: warning: --domains %d exceeds this machine's recommended domain \
       count (%d); oversubscribing domains usually hurts throughput@."
      d
      (Domain.recommended_domain_count ())
  | _ -> ()

let domains_arg =
  Arg.(
    value
    & opt (some domains_conv) None
    & info [ "domains" ]
        ~doc:
          "Split support-counting passes across $(docv) parallel counting \
           domains (default 1 = sequential; ignored by the fpgrowth miner). \
           Must be positive."
        ~docv:"N")

let cache_mb_arg =
  Arg.(
    value & opt int 0
    & info [ "cache-mb" ]
        ~doc:
          "Route the query through a session result cache with this MiB \
           budget (see olar.serve). 0 disables the cache: the session passes \
           every query straight to the engine. Cache accounting is reported \
           on stderr."
        ~docv:"MB")

let make_session ~cache_mb engine =
  Olar_serve.Session.create ~budget_bytes:(cache_mb * 1024 * 1024) engine

(* Cache accounting goes to stderr so --format csv/json stdout stays
   machine-readable. *)
let report_cache session =
  if Olar_serve.Session.enabled session then begin
    let open Olar_serve.Session in
    let s = stats session in
    Format.eprintf
      "cache: hits=%d (refines=%d) misses=%d evictions=%d resident=%dB/%dB \
       entries=%d@."
      s.hits s.refines s.misses s.evictions s.resident_bytes s.budget_bytes
      s.entries
  end

let load_db path =
  try Ok (Db_io.load path) with
  | Db_io.Malformed msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> Error msg

let load_engine ?obs path =
  try Ok (Olar_core.Engine.load ?obs path) with
  | Olar_core.Serialize.Malformed msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Telemetry flags shared by the query and maintenance commands *)

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the command, print the telemetry registry: query \
           counters, work counters, lattice gauges and latency \
           histograms.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:
          "Write trace spans as JSON lines to $(docv), one span per line \
           (spans are emitted when they close, children before parents)."
        ~docv:"FILE")

(* Build the observability context from --metrics/--trace. Returns the
   context plus a finisher that flushes/closes the trace file and prints
   the registry; commands call it after their output. Both flags off
   yields the disabled context and a no-op finisher — unless [force] is
   set (workload recording needs the shared work counters live even when
   nothing will be printed). *)
let make_obs ?(force = false) metrics trace =
  if (not force) && (not metrics) && trace = None then
    (Olar_obs.Obs.disabled, fun () -> ())
  else begin
    let oc = Option.map open_out trace in
    let sink = Option.map Olar_obs.Sink.jsonl oc in
    let obs = Olar_obs.Obs.create ?trace:sink () in
    Option.iter (fun ctx -> Olar_obs.Obs.set_build_info ctx ~version) obs;
    let finish () =
      Olar_obs.Obs.flush_opt obs;
      Option.iter close_out oc;
      Option.iter (fun path -> Format.printf "wrote trace %s@." path) trace;
      if metrics then
        Option.iter
          (fun ctx ->
            Olar_obs.Obs.update_runtime_gauges ctx;
            print_string
              (Olar_obs.Exposition.to_text (Olar_obs.Obs.metrics ctx)))
          obs
    in
    (obs, finish)
  end

(* ------------------------------------------------------------------ *)
(* Workload capture flags (items/rules/count/support-for) *)

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ]
        ~doc:
          "Append one JSON query-log record per query to $(docv): the full \
           query key, result digest, latency, work counters and cache path. \
           Re-execute with $(b,olar replay)."
        ~docv:"FILE")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Render each query's log record human-readably on stderr: key, \
           cache path, result size, digest, latency and work counters.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ]
        ~doc:
          "Slow-query mode: only emit --record/--explain output for queries \
           taking at least $(docv) milliseconds."
        ~docv:"MS")

let slow_s_of = function None -> 0.0 | Some ms -> ms /. 1000.0

(* The one query path of items/rules/count/support-for: a session over
   [engine] with the --cache-mb budget (0 is a pure passthrough to the
   engine), and [f] handed [Pool.exec] on it — or, under
   --record/--explain, the recorder's [exec] wired to the
   --record/--explain/--slow-ms flags, its log closed when [f] returns
   or raises. Recording wants a forced obs context so the work counters
   are live; callers arrange it. *)
let with_query_exec ~cache_mb ~record ~explain ~slow_ms engine f =
  let session = make_session ~cache_mb engine in
  let result =
    if record = None && not explain then f (Olar_serve.Pool.exec session)
    else begin
      let oc =
        Option.map
          (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
          record
      in
      let emit r =
        Option.iter
          (fun oc ->
            output_string oc (Olar_replay.Record.to_json_line r);
            output_char oc '\n')
          oc;
        if explain then Format.eprintf "%a@." Olar_replay.Record.pp r
      in
      let recorder =
        Olar_replay.Recorder.create ~slow_s:(slow_s_of slow_ms) ~emit session
      in
      let finish () =
        Option.iter close_out oc;
        Option.iter (fun path -> Format.eprintf "recorded %s@." path) record
      in
      Fun.protect ~finally:finish (fun () ->
          f (Olar_replay.Recorder.exec recorder))
    end
  in
  report_cache session;
  result

let or_die = function
  | Ok x -> x
  | Error msg ->
    Format.eprintf "olar: %s@." msg;
    exit 1

let handle_below_threshold f =
  try f ()
  with Olar_core.Query.Below_primary_threshold { requested; primary } ->
    Format.eprintf
      "olar: requested support (count %d) is below the primary threshold \
       (count %d); itemsets in that range were not prestored@."
      requested primary;
    exit 2

(* ------------------------------------------------------------------ *)
(* gen *)

let gen_cmd =
  let name_arg =
    Arg.(
      value
      & opt string "T10.I4.D10K"
      & info [ "name" ] ~doc:"Dataset annotation Tt.Ii.Dn (paper notation)."
          ~docv:"NAME")
  in
  let items_arg =
    Arg.(value & opt int 1000 & info [ "items" ] ~doc:"Universe size." ~docv:"N")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed." ~docv:"SEED")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output file." ~docv:"FILE")
  in
  let run name items seed out =
    match Olar_datagen.Params.of_name name with
    | None ->
      Format.eprintf "olar: cannot parse dataset name %S (expected Tt.Ii.Dn)@." name;
      exit 1
    | Some p ->
      let params = { p with Olar_datagen.Params.num_items = items; seed } in
      let db = Olar_datagen.Quest.generate params in
      Db_io.save db out;
      Format.printf "wrote %s: %d transactions, %d items, avg size %.2f@." out
        (Database.size db) (Database.num_items db)
        (Database.avg_transaction_size db)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic transaction database (Section 6.1).")
    Term.(const run $ name_arg $ items_arg $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* preprocess *)

let miner_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("dhp", Olar_mining.Threshold.Use_dhp);
             ("apriori", Olar_mining.Threshold.Use_apriori);
             ("fpgrowth", Olar_mining.Threshold.Use_fpgrowth) ])
        Olar_mining.Threshold.Use_dhp
    & info [ "miner" ]
        ~doc:"Mining subroutine: $(b,dhp), $(b,apriori) or $(b,fpgrowth)."
        ~docv:"MINER")

type any_miner = M_dhp | M_apriori | M_partition | M_sampling | M_fpgrowth

let any_miner_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("dhp", M_dhp); ("apriori", M_apriori); ("partition", M_partition);
             ("sampling", M_sampling); ("fpgrowth", M_fpgrowth) ])
        M_dhp
    & info [ "miner" ]
        ~doc:
          "Mining algorithm: $(b,dhp), $(b,apriori), $(b,partition), $(b,fpgrowth) \
           or $(b,sampling) (Toivonen). FP-Growth and Partition mine exactly;"
        ~docv:"MINER")

let run_any_miner ?stats miner db ~minsup =
  match miner with
  | M_dhp -> Olar_mining.Dhp.mine ?stats db ~minsup
  | M_apriori -> Olar_mining.Apriori.mine ?stats db ~minsup
  | M_partition -> Olar_mining.Partition.mine ?stats db ~minsup
  | M_sampling ->
    (Olar_mining.Sampling.mine ?stats db ~minsup).Olar_mining.Sampling.result
  | M_fpgrowth -> Olar_mining.Fpgrowth.mine ?stats db ~minsup

(* Output formats shared by items/rules. *)
type format = Text | Csv | Json

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("csv", Csv); ("json", Json) ]) Text
    & info [ "format" ] ~doc:"Output format: $(b,text), $(b,csv) or $(b,json).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~doc:"Write the result to a file instead of stdout."
        ~docv:"FILE")

let vocab_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "vocab" ]
        ~doc:"Item-name vocabulary file (one name per line); output uses names."
        ~docv:"FILE")

let load_vocab = function
  | None -> None
  | Some path -> (
    try Some (Item.Vocab.load path) with
    | Invalid_argument msg ->
      Format.eprintf "olar: %s: %s@." path msg;
      exit 1
    | Sys_error msg ->
      Format.eprintf "olar: %s@." msg;
      exit 1)

let emit output text =
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text);
    Format.printf "wrote %s@." path

let preprocess_cmd =
  let max_itemsets_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-itemsets" ]
          ~doc:"Itemset budget N; a binary search finds the threshold."
          ~docv:"N")
  in
  let support_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "support" ]
          ~doc:"Explicit primary support fraction (skips the budget search)."
          ~docv:"FRACTION")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ]
          ~doc:"Memory budget in bytes for the lattice (the paper's real constraint)."
          ~docv:"BYTES")
  in
  let slack_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slack" ] ~doc:"Search window Ns (default N/20)." ~docv:"NS")
  in
  let search_arg =
    Arg.(
      value
      & opt (enum [ ("optimized", `Optimized); ("naive", `Naive) ]) `Optimized
      & info [ "search" ]
          ~doc:"Threshold search variant: $(b,optimized) or $(b,naive).")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output lattice file." ~docv:"FILE")
  in
  let run db_path max_itemsets support max_bytes slack search miner domains out
      metrics trace =
    warn_domains domains;
    let db = or_die (load_db db_path) in
    let obs, finish_obs = make_obs metrics trace in
    let stats = Olar_mining.Stats.create () in
    let engine, dt =
      Olar_util.Timer.time (fun () ->
          match (max_itemsets, support, max_bytes) with
          | Some n, None, None ->
            Olar_core.Engine.preprocess ~obs ~stats ~miner ~search ?slack
              ?domains db ~max_itemsets:n
          | None, Some s, None ->
            Olar_core.Engine.at_threshold ~obs ~stats ~miner ?domains db
              ~primary_support:s
          | None, None, Some b ->
            Olar_core.Engine.preprocess_bytes ~obs ~stats ~miner ?domains db
              ~max_bytes:b
          | _ ->
            Format.eprintf
              "olar: pass exactly one of --max-itemsets, --support and \
               --max-bytes@.";
            exit 1)
    in
    Olar_core.Engine.save engine out;
    Format.printf
      "wrote %s: %d primary itemsets, threshold %.4f%% (count %d), ~%d KiB, %.2fs@."
      out
      (Olar_core.Engine.num_primary_itemsets engine)
      (100.0 *. Olar_core.Engine.primary_threshold engine)
      (Olar_core.Engine.primary_threshold_count engine)
      (Olar_core.Lattice.estimated_bytes (Olar_core.Engine.lattice engine) / 1024)
      dt;
    Format.printf "work: %a@." Olar_mining.Stats.pp stats;
    finish_obs ()
  in
  Cmd.v
    (Cmd.info "preprocess"
       ~doc:"Mine the primary itemsets and build the adjacency lattice (Section 5).")
    Term.(
      const run $ db_arg $ max_itemsets_arg $ support_arg $ max_bytes_arg
      $ slack_arg $ search_arg $ miner_arg $ domains_arg $ out_arg
      $ metrics_flag $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* info *)

let info_cmd =
  let run lattice_path =
    let engine = or_die (load_engine lattice_path) in
    let lat = Olar_core.Engine.lattice engine in
    Format.printf "database size:      %d transactions@." (Olar_core.Lattice.db_size lat);
    Format.printf "primary threshold:  %.4f%% (count %d)@."
      (100.0 *. Olar_core.Engine.primary_threshold engine)
      (Olar_core.Lattice.threshold lat);
    Format.printf "primary itemsets:   %d@." (Olar_core.Engine.num_primary_itemsets engine);
    Format.printf "lattice edges:      %d@." (Olar_core.Lattice.num_edges lat);
    (* level histogram *)
    let hist = Hashtbl.create 8 in
    Olar_core.Lattice.iter_vertices
      (fun v ->
        if v <> Olar_core.Lattice.root lat then begin
          let k = Olar_core.Lattice.cardinal lat v in
          Hashtbl.replace hist k (1 + Option.value ~default:0 (Hashtbl.find_opt hist k))
        end)
      lat;
    let levels = List.sort Int.compare (Hashtbl.fold (fun k _ l -> k :: l) hist []) in
    List.iter
      (fun k -> Format.printf "  %d-itemsets:       %d@." k (Hashtbl.find hist k))
      levels
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe a preprocessed lattice.")
    Term.(const run $ lattice_arg)

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let run lattice_path =
    let engine = or_die (load_engine lattice_path) in
    let s = Olar_core.Engine.stats engine in
    Format.printf "vertices:    %d@." s.Olar_core.Lattice.Stats.vertices;
    Format.printf "edges:       %d@." s.Olar_core.Lattice.Stats.edges;
    Format.printf "bytes:       %d (~%d KiB)@." s.Olar_core.Lattice.Stats.bytes
      (s.Olar_core.Lattice.Stats.bytes / 1024);
    Format.printf "max fanout:  %d@." s.Olar_core.Lattice.Stats.max_fanout;
    Format.printf "depth:       %d@." s.Olar_core.Lattice.Stats.depth
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print the lattice shape summary: vertices, edges, estimated \
          resident bytes of the CSR layout, the largest child fanout and \
          the cardinality of the deepest itemset.")
    Term.(const run $ lattice_arg)

(* ------------------------------------------------------------------ *)
(* items *)

let items_cmd =
  let minsup = fraction_arg ~doc:"Minimum support fraction." [ "minsup" ] in
  let limit_arg =
    Arg.(value & opt int 50 & info [ "limit" ] ~doc:"Print at most this many." ~docv:"N")
  in
  let run lattice_path minsup containing limit format output vocab_path cache_mb
      record explain slow_ms metrics trace =
    let recording = record <> None || explain in
    let obs, finish_obs = make_obs ~force:recording metrics trace in
    let engine = or_die (load_engine ~obs lattice_path) in
    let vocab = load_vocab vocab_path in
    handle_below_threshold (fun () ->
        let db_size = Olar_core.Engine.db_size engine in
        let entries, dt =
          with_query_exec ~cache_mb ~record ~explain ~slow_ms engine
            (fun exec ->
              Olar_util.Timer.time (fun () ->
                  match
                    exec (Olar_serve.Pool.Find_itemsets { containing; minsup })
                  with
                  | Olar_serve.Pool.R_items entries -> Array.to_list entries
                  | _ -> assert false))
        in
        Fun.protect ~finally:finish_obs @@ fun () ->
        match format with
        | Csv -> emit output (Olar_core.Export.itemsets_to_csv ?vocab ~db_size entries)
        | Json -> emit output (Olar_core.Export.itemsets_to_json ?vocab ~db_size entries)
        | Text ->
          let pp_set fmt x =
            match vocab with
            | None -> Itemset.pp fmt x
            | Some v -> Itemset.pp_named v fmt x
          in
          Format.printf "%d itemsets (%.4fs):@." (List.length entries) dt;
          List.iteri
            (fun i (x, c) ->
              if i < limit then
                Format.printf "  %a  %.4f%%@." pp_set x
                  (100.0 *. float_of_int c /. float_of_int db_size))
            entries;
          if List.length entries > limit then
            Format.printf "  ... and %d more (raise --limit)@."
              (List.length entries - limit))
  in
  Cmd.v
    (Cmd.info "items"
       ~doc:"Online itemset query: all itemsets above a support level (Figure 2).")
    Term.(
      const run $ lattice_arg $ minsup $ containing_arg $ limit_arg $ format_arg
      $ output_arg $ vocab_arg $ cache_mb_arg $ record_arg $ explain_flag
      $ slow_ms_arg $ metrics_flag $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* rules *)

let rules_cmd =
  let minsup = fraction_arg ~doc:"Minimum support fraction." [ "minsup" ] in
  let minconf = fraction_arg ~doc:"Minimum confidence." [ "minconf" ] in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Include redundant rules (default: essential only).")
  in
  let single_arg =
    Arg.(
      value & flag
      & info [ "single-consequent" ] ~doc:"Only rules with one item in the consequent.")
  in
  let antecedent_arg =
    Arg.(
      value
      & opt itemset_conv Itemset.empty
      & info [ "antecedent" ] ~doc:"Items the antecedent must include." ~docv:"ITEMS")
  in
  let consequent_arg =
    Arg.(
      value
      & opt itemset_conv Itemset.empty
      & info [ "consequent" ] ~doc:"Items the consequent must include." ~docv:"ITEMS")
  in
  let limit_arg =
    Arg.(value & opt int 50 & info [ "limit" ] ~doc:"Print at most this many." ~docv:"N")
  in
  let min_lift_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-lift" ]
          ~doc:"Drop rules below this lift (e.g. 1.0 removes negative correlations)."
          ~docv:"LIFT")
  in
  let sort_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("lift", `Lift); ("confidence", `Confidence);
                  ("support", `Support); ("leverage", `Leverage);
                  ("conviction", `Conviction) ]))
          None
      & info [ "sort-by" ]
          ~doc:"Order by an interestingness measure, strongest first."
          ~docv:"MEASURE")
  in
  let measures_arg =
    Arg.(
      value & flag
      & info [ "measures" ] ~doc:"Include lift/leverage/conviction in the output.")
  in
  let run lattice_path minsup minconf containing all single antecedent consequent
      limit format output min_lift sort_by measures vocab_path cache_mb record
      explain slow_ms metrics trace =
    let recording = record <> None || explain in
    let obs, finish_obs = make_obs ~force:recording metrics trace in
    let engine = or_die (load_engine ~obs lattice_path) in
    let vocab = load_vocab vocab_path in
    let lat = Olar_core.Engine.lattice engine in
    let constraints =
      {
        Olar_core.Boundary.unconstrained with
        Olar_core.Boundary.antecedent_includes = antecedent;
        consequent_includes = consequent;
      }
    in
    let req =
      if single then
        Olar_serve.Pool.Single_consequent_rules { containing; minsup; minconf }
      else if all then
        Olar_serve.Pool.All_rules { containing; constraints; minsup; minconf }
      else
        Olar_serve.Pool.Essential_rules { containing; constraints; minsup; minconf }
    in
    handle_below_threshold (fun () ->
        let rules, dt =
          with_query_exec ~cache_mb ~record ~explain ~slow_ms engine
            (fun exec ->
              Olar_util.Timer.time (fun () ->
                  match exec req with
                  | Olar_serve.Pool.R_rules rules -> rules
                  | _ -> assert false))
        in
        Fun.protect ~finally:finish_obs @@ fun () ->
        let rules =
          match min_lift with
          | None -> rules
          | Some min_lift -> Olar_core.Interest.filter_by lat rules ~min_lift
        in
        let rules =
          match sort_by with
          | None -> rules
          | Some measure -> Olar_core.Interest.sort_by measure lat rules
        in
        let db_size = Olar_core.Engine.db_size engine in
        let measures_lattice = if measures then Some lat else None in
        let pp_rule fmt r =
          match vocab with
          | None -> Olar_core.Rule.pp fmt r
          | Some v -> Olar_core.Rule.pp_named v fmt r
        in
        match format with
        | Csv ->
          emit output
            (Olar_core.Export.rules_to_csv ?vocab ?measures:measures_lattice
               ~db_size rules)
        | Json ->
          emit output
            (Olar_core.Export.rules_to_json ?vocab ?measures:measures_lattice
               ~db_size rules)
        | Text ->
          Format.printf "%d rules (%.4fs):@." (List.length rules) dt;
          List.iteri
            (fun i r ->
              if i < limit then
                if measures then
                  Format.printf "  %a  [%a]@." pp_rule r Olar_core.Interest.pp
                    (Olar_core.Interest.measures lat r)
                else Format.printf "  %a@." pp_rule r)
            rules;
          if List.length rules > limit then
            Format.printf "  ... and %d more (raise --limit)@."
              (List.length rules - limit))
  in
  Cmd.v
    (Cmd.info "rules"
       ~doc:"Online rule query: essential rules at a support/confidence level (Figure 6).")
    Term.(
      const run $ lattice_arg $ minsup $ minconf $ containing_arg $ all_arg
      $ single_arg $ antecedent_arg $ consequent_arg $ limit_arg $ format_arg
      $ output_arg $ min_lift_arg $ sort_arg $ measures_arg $ vocab_arg
      $ cache_mb_arg $ record_arg $ explain_flag $ slow_ms_arg $ metrics_flag
      $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* count *)

let count_cmd =
  let minsup = fraction_arg ~doc:"Minimum support fraction." [ "minsup" ] in
  let minconf_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "minconf" ] ~doc:"Also count rules at this confidence." ~docv:"C")
  in
  let run lattice_path minsup containing minconf cache_mb record explain slow_ms
      metrics trace =
    let recording = record <> None || explain in
    let obs, finish_obs = make_obs ~force:recording metrics trace in
    let engine = or_die (load_engine ~obs lattice_path) in
    handle_below_threshold (fun () ->
        let n =
          with_query_exec ~cache_mb ~record ~explain ~slow_ms engine
            (fun exec ->
              match
                exec (Olar_serve.Pool.Count_itemsets { containing; minsup })
              with
              | Olar_serve.Pool.R_count n -> n
              | _ -> assert false)
        in
        Format.printf "itemsets: %d@." n;
        (match minconf with
        | None -> ()
        | Some c ->
          let r = Olar_core.Engine.redundancy ~containing engine ~minsup ~minconf:c in
          Format.printf "rules:    %d total, %d essential (redundancy ratio %.2f)@."
            r.Olar_core.Rulegen.total_rules r.Olar_core.Rulegen.essential_count
            r.Olar_core.Rulegen.redundancy_ratio);
        finish_obs ())
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:"Predict output sizes without materialising them (query type 3).")
    Term.(
      const run $ lattice_arg $ minsup $ containing_arg $ minconf_arg
      $ cache_mb_arg $ record_arg $ explain_flag $ slow_ms_arg $ metrics_flag
      $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* support-for *)

let support_for_cmd =
  let k_arg =
    Arg.(required & opt (some int) None & info [ "k" ] ~doc:"Target count." ~docv:"K")
  in
  let minconf_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "minconf" ]
          ~doc:"Ask about single-consequent rules at this confidence instead of itemsets."
          ~docv:"C")
  in
  let run lattice_path k containing minconf cache_mb record explain slow_ms
      metrics trace =
    let recording = record <> None || explain in
    let obs, finish_obs = make_obs ~force:recording metrics trace in
    let engine = or_die (load_engine ~obs lattice_path) in
    let req =
      match minconf with
      | None -> Olar_serve.Pool.Support_for_k_itemsets { containing; k }
      | Some c ->
        Olar_serve.Pool.Support_for_k_rules { involving = containing; minconf = c; k }
    in
    let level =
      with_query_exec ~cache_mb ~record ~explain ~slow_ms engine (fun exec ->
          match exec req with
          | Olar_serve.Pool.R_level level -> level
          | _ -> assert false)
    in
    (match (minconf, level) with
    | None, Some level ->
      Format.printf "exactly %d itemsets containing %a exist at minsup = %.4f%%@."
        k Itemset.pp containing (100.0 *. level)
    | None, None ->
      Format.printf "fewer than %d itemsets containing %a are prestored@." k
        Itemset.pp containing
    | Some c, Some level ->
      Format.printf
        "%d single-consequent rules at conf %.0f%% exist at minsup = %.4f%%@."
        k (100.0 *. c) (100.0 *. level)
    | Some _, None ->
      Format.printf "fewer than %d such rules can be generated@." k);
    finish_obs ()
  in
  Cmd.v
    (Cmd.info "support-for"
       ~doc:"Reverse query: the support level yielding exactly K answers (Figure 3).")
    Term.(
      const run $ lattice_arg $ k_arg $ containing_arg $ minconf_arg
      $ cache_mb_arg $ record_arg $ explain_flag $ slow_ms_arg $ metrics_flag
      $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* direct *)

let direct_cmd =
  let minsup = fraction_arg ~doc:"Minimum support fraction." [ "minsup" ] in
  let minconf = fraction_arg ~doc:"Minimum confidence." [ "minconf" ] in
  let run db_path minsup minconf miner =
    let db = or_die (load_db db_path) in
    let minsup_count = Database.count_of_fraction db minsup in
    let frequent, mining_s =
      Olar_util.Timer.time (fun () -> run_any_miner miner db ~minsup:minsup_count)
    in
    let rules, rulegen_s =
      Olar_util.Timer.time (fun () ->
          let entries = Olar_mining.Frequent.to_list frequent in
          let support a =
            if Itemset.is_empty a then Database.size db
            else Option.value ~default:0 (Olar_mining.Frequent.count frequent a)
          in
          Olar_baseline.Naive_rules.all_rules ~support ~frequent:entries
            ~confidence:(Olar_core.Conf.of_float minconf))
    in
    Format.printf
      "direct (no preprocessing): %d itemsets, %d rules; mining %.2fs + rulegen %.4fs@."
      (Olar_mining.Frequent.total frequent)
      (List.length rules) mining_s rulegen_s
  in
  Cmd.v
    (Cmd.info "direct"
       ~doc:"Answer one query the classical way: re-mine the database from scratch.")
    Term.(const run $ db_arg $ minsup $ minconf $ any_miner_arg)

(* ------------------------------------------------------------------ *)
(* baskets *)

let baskets_cmd =
  let in_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "i"; "input" ]
          ~doc:"Named basket file: one basket per line, comma-separated item names."
          ~docv:"FILE")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output database file." ~docv:"FILE")
  in
  let vocab_out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "vocab-out" ] ~doc:"Where to write the derived vocabulary."
          ~docv:"FILE")
  in
  let run input out vocab_out =
    match Basket_io.load input with
    | exception Basket_io.Malformed msg ->
      Format.eprintf "olar: %s: %s@." input msg;
      exit 1
    | exception Sys_error msg ->
      Format.eprintf "olar: %s@." msg;
      exit 1
    | vocab, db ->
      Db_io.save db out;
      Item.Vocab.save vocab vocab_out;
      Format.printf "wrote %s (%d baskets, %d distinct items) and %s@." out
        (Database.size db) (Item.Vocab.size vocab) vocab_out
  in
  Cmd.v
    (Cmd.info "baskets"
       ~doc:
         "Convert a named basket file into a database + vocabulary usable by \
          every other command.")
    Term.(const run $ in_arg $ out_arg $ vocab_out_arg)

(* ------------------------------------------------------------------ *)
(* dbinfo *)

let dbinfo_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"Show the N most frequent items." ~docv:"N")
  in
  let run db_path vocab_path top =
    let db = or_die (load_db db_path) in
    let vocab = load_vocab vocab_path in
    Format.printf "transactions:     %d@." (Database.size db);
    Format.printf "item universe:    %d@." (Database.num_items db);
    Format.printf "avg basket size:  %.2f@." (Database.avg_transaction_size db);
    let freq = Database.item_frequencies db in
    let present = Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 freq in
    Format.printf "items present:    %d@." present;
    let density =
      Database.avg_transaction_size db /. float_of_int (max 1 (Database.num_items db))
    in
    Format.printf "density:          %.4f%%@." (100.0 *. density);
    let ranked =
      List.sort
        (fun (_, a) (_, b) -> Int.compare b a)
        (List.init (Array.length freq) (fun i -> (i, freq.(i))))
    in
    Format.printf "top items:@.";
    List.iteri
      (fun rank (i, c) ->
        if rank < top && c > 0 then begin
          let label =
            match vocab with
            | Some v when i < Item.Vocab.size v -> Item.Vocab.name v i
            | _ -> string_of_int i
          in
          Format.printf "  %-24s %6d  (%.2f%%)@." label c
            (100.0 *. float_of_int c /. float_of_int (max 1 (Database.size db)))
        end)
      ranked
  in
  Cmd.v
    (Cmd.info "dbinfo" ~doc:"Describe a transaction database.")
    Term.(const run $ db_arg $ vocab_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* extend (generalized rules: taxonomy) *)

let extend_cmd =
  let baskets_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "baskets" ] ~doc:"Named basket file (see $(b,olar baskets))."
          ~docv:"FILE")
  in
  let taxonomy_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "taxonomy" ]
          ~doc:"Taxonomy file: one \"child -> parent\" edge per line."
          ~docv:"FILE")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output extended database." ~docv:"FILE")
  in
  let vocab_out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "vocab-out" ]
          ~doc:"Where to write the vocabulary grown with category names."
          ~docv:"FILE")
  in
  let run baskets_path taxonomy_path out vocab_out =
    match Basket_io.load baskets_path with
    | exception Basket_io.Malformed msg ->
      Format.eprintf "olar: %s: %s@." baskets_path msg;
      exit 1
    | vocab, db -> (
      match Olar_taxonomy.Taxonomy_io.load ~vocab taxonomy_path with
      | exception Olar_taxonomy.Taxonomy_io.Malformed msg ->
        Format.eprintf "olar: %s: %s@." taxonomy_path msg;
        exit 1
      | exception Invalid_argument msg ->
        Format.eprintf "olar: %s: %s@." taxonomy_path msg;
        exit 1
      | vocab, taxonomy ->
        let extended = Olar_taxonomy.Generalize.extend_database taxonomy db in
        Db_io.save extended out;
        Item.Vocab.save vocab vocab_out;
        Format.printf
          "wrote %s: %d baskets extended over %d items (%d categories); vocab in %s@."
          out (Database.size extended)
          (Item.Vocab.size vocab)
          (List.length
             (List.filter
                (fun i -> Olar_taxonomy.Taxonomy.children taxonomy i <> [])
                (List.init (Olar_taxonomy.Taxonomy.num_items taxonomy) Fun.id)))
          vocab_out)
  in
  Cmd.v
    (Cmd.info "extend"
       ~doc:
         "Extend named baskets with taxonomy ancestors for generalized-rule \
          mining (reference [21]).")
    Term.(const run $ baskets_arg $ taxonomy_arg $ out_arg $ vocab_out_arg)

(* ------------------------------------------------------------------ *)
(* update *)

let update_cmd =
  let delta_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "delta" ] ~doc:"Batch of new transactions (database file)."
          ~docv:"FILE")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output lattice file." ~docv:"FILE")
  in
  let run lattice_path delta_path domains out metrics trace =
    warn_domains domains;
    let obs, finish_obs = make_obs metrics trace in
    let engine = or_die (load_engine ~obs lattice_path) in
    let delta = or_die (load_db delta_path) in
    let (engine', promoted), dt =
      Olar_util.Timer.time (fun () ->
          Olar_core.Engine.append ?domains engine delta)
    in
    Olar_core.Engine.save engine' out;
    Format.printf
      "wrote %s: %d transactions folded in %.3fs (database now %d)@." out
      (Olar_data.Database.size delta) dt
      (Olar_core.Engine.db_size engine');
    (match promoted with
    | [] -> Format.printf "no new itemsets crossed the threshold@."
    | promoted ->
      Format.printf
        "%d new itemset families crossed the threshold in the batch alone — \
         consider a full re-preprocess:@."
        (List.length promoted);
      List.iteri
        (fun i x -> if i < 10 then Format.printf "  %a@." Itemset.pp x)
        promoted);
    finish_obs ()
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Fold a batch of new transactions into an existing lattice in one \
          pass over the batch.")
    Term.(
      const run $ lattice_arg $ delta_arg $ domains_arg $ out_arg $ metrics_flag
      $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* condense *)

let condense_cmd =
  let minsup = fraction_arg ~doc:"Minimum support fraction." [ "minsup" ] in
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("maximal", `Maximal); ("closed", `Closed) ]) `Maximal
      & info [ "kind" ] ~doc:"$(b,maximal) or $(b,closed) frequent itemsets.")
  in
  let limit_arg =
    Arg.(value & opt int 50 & info [ "limit" ] ~doc:"Print at most this many." ~docv:"N")
  in
  let run db_path minsup kind miner limit =
    let db = or_die (load_db db_path) in
    let frequent =
      run_any_miner miner db ~minsup:(Database.count_of_fraction db minsup)
    in
    let condensed =
      match kind with
      | `Maximal -> Olar_mining.Condense.maximal frequent
      | `Closed -> Olar_mining.Condense.closed frequent
    in
    Format.printf "%d frequent itemsets condense to %d %s itemsets:@."
      (Olar_mining.Frequent.total frequent)
      (List.length condensed)
      (match kind with `Maximal -> "maximal" | `Closed -> "closed");
    List.iteri
      (fun i (x, c) ->
        if i < limit then Format.printf "  %a  count=%d@." Itemset.pp x c)
      condensed
  in
  Cmd.v
    (Cmd.info "condense"
       ~doc:"Mine and condense to maximal or closed frequent itemsets.")
    Term.(const run $ db_arg $ minsup $ kind_arg $ any_miner_arg $ limit_arg)

(* ------------------------------------------------------------------ *)
(* replay *)

let replay_cmd =
  let log_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~doc:"Captured query log (jsonl, from $(b,--record))."
          ~docv:"LOG")
  in
  let serve_domains_arg =
    Arg.(
      value
      & opt (some domains_conv) None
      & info [ "domains" ]
          ~doc:
            "Replay through a serving pool of $(docv) domains (one shared \
             lattice, per-domain sessions; requests stream continuously, and \
             the replay drains the stream before each append so the log's \
             sequential epochs are reproduced exactly) instead \
             of a single serial session. With $(b,--trace), each domain's \
             spans are buffered in its own shard and merged domain-tagged \
             into the trace file."
          ~docv:"N")
  in
  let run lattice_path log_path cache_mb domains explain metrics trace =
    warn_domains domains;
    let obs, finish_obs = make_obs ~force:true metrics trace in
    let engine = or_die (load_engine ~obs lattice_path) in
    let records = or_die (Olar_replay.Replay.load log_path) in
    let report, dt, session =
      match domains with
      | Some d ->
        let pool =
          try
            Olar_serve.Pool.create ~domains:d
              ~budget_bytes:(cache_mb * 1024 * 1024) engine
          with Invalid_argument msg -> or_die (Error msg)
        in
        let on_response (r : Olar_replay.Record.t) resp ~ok =
          if not ok then
            Format.eprintf
              "olar: digest mismatch at seq %d (%s): recorded %s, replayed %s@."
              r.Olar_replay.Record.seq
              (Olar_replay.Record.kind_to_string r.Olar_replay.Record.kind)
              (Olar_replay.Fnv.to_hex r.Olar_replay.Record.digest)
              (match Olar_replay.Replay.digest_response resp with
              | Some d -> Olar_replay.Fnv.to_hex d
              | None -> "<error>")
        in
        let report, dt =
          Olar_util.Timer.time (fun () ->
              Fun.protect
                ~finally:(fun () -> Olar_serve.Pool.shutdown pool)
                (fun () ->
                  Olar_replay.Replay.run_pool ~on_response pool records))
        in
        Format.printf "pool: %d domains@." (Olar_serve.Pool.domains pool);
        (report, dt, None)
      | None ->
        let session = make_session ~cache_mb engine in
        let on_outcome (o : Olar_replay.Replay.outcome) =
          if explain then
            Option.iter
              (fun r -> Format.eprintf "%a@." Olar_replay.Record.pp r)
              o.replayed;
          if not o.ok then
            Format.eprintf
              "olar: digest mismatch at seq %d (%s): recorded %s, replayed %s@."
              o.record.Olar_replay.Record.seq
              (Olar_replay.Record.kind_to_string o.record.Olar_replay.Record.kind)
              (Olar_replay.Fnv.to_hex o.record.Olar_replay.Record.digest)
              (match o.replayed with
              | Some p -> Olar_replay.Fnv.to_hex p.Olar_replay.Record.digest
              | None -> "<raised>")
        in
        let report, dt =
          Olar_util.Timer.time (fun () ->
              handle_below_threshold (fun () ->
                  Olar_replay.Replay.run ~on_outcome session records))
        in
        (report, dt, Some session)
    in
    let open Olar_replay.Replay in
    Format.printf "replayed %d queries in %.4fs: %d ok, %d mismatches (%d errors)@."
      report.total dt
      (report.total - report.mismatches)
      report.mismatches report.errors;
    let ratio a b = if b > 0.0 then a /. b else Float.nan in
    Format.printf
      "latency: recorded %.4fs, replayed %.4fs (x%.2f of recorded)@."
      report.recorded_s report.replayed_s
      (ratio report.replayed_s report.recorded_s);
    Format.printf "work: vertices %d -> %d, heap pops %d -> %d@."
      report.recorded_vertices report.replayed_vertices
      report.recorded_heap_pops report.replayed_heap_pops;
    Option.iter report_cache session;
    finish_obs ();
    if report.mismatches > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a captured query log against a lattice, verifying every \
          result digest and reporting latency/work deltas versus the recorded \
          run. With $(b,--domains) the log is served by a domain pool, \
          draining at each append to reproduce the log's sequential epochs. \
          Exits nonzero on any digest mismatch.")
    Term.(
      const run $ lattice_arg $ log_arg $ cache_mb_arg $ serve_domains_arg
      $ explain_flag $ metrics_flag $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* metrics *)

let metrics_cmd =
  let minsup_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "minsup" ]
          ~doc:
            "Support level for the canned workload (default: the lattice's \
             primary threshold)."
          ~docv:"F")
  in
  let minconf_arg =
    Arg.(
      value & opt float 0.5
      & info [ "minconf" ] ~doc:"Confidence for the rule queries." ~docv:"C")
  in
  let format_arg =
    Arg.(
      value
      & opt
          (enum [ ("text", `Text); ("prometheus", `Prometheus); ("json", `Json) ])
          `Text
      & info [ "format" ]
          ~doc:"Registry output format: $(b,text), $(b,prometheus) or $(b,json)."
          ~docv:"FMT")
  in
  let cache_arg =
    Arg.(
      value & opt int 8
      & info [ "cache-mb" ]
          ~doc:
            "Session cache budget in MiB for the workload; the workload runs \
             twice so the second pass exercises the cache. 0 disables."
          ~docv:"MB")
  in
  let run lattice_path minsup minconf cache_mb format trace =
    let oc = Option.map open_out trace in
    let sink = Option.map Olar_obs.Sink.jsonl oc in
    let obs = Olar_obs.Obs.create ?trace:sink () in
    let engine = or_die (load_engine ~obs lattice_path) in
    let minsup =
      match minsup with
      | Some s -> s
      | None -> Olar_core.Engine.primary_threshold engine
    in
    (* Canned workload touching every query family — including the
       boundary walk and an incremental append — so the registry has one
       live histogram per entry point. Routed through a session cache and
       run twice before the append (first pass misses, second hits, so
       the olar_cache_* series carry data) and once after it (so the
       epoch-invalidation counters fire too). *)
    let session = make_session ~cache_mb engine in
    let lat = Olar_core.Engine.lattice engine in
    let boundary_target = ref Itemset.empty in
    let max_item = ref (-1) in
    for v = 0 to Olar_core.Lattice.num_vertices lat - 1 do
      let x = Olar_core.Lattice.itemset lat v in
      if Itemset.cardinal x > Itemset.cardinal !boundary_target then
        boundary_target := x;
      if not (Itemset.is_empty x) then
        max_item := max !max_item (Itemset.max_item x)
    done;
    let workload () =
      ignore (Olar_serve.Session.count_itemsets session ~minsup);
      ignore (Olar_serve.Session.itemsets session ~minsup);
      ignore (Olar_serve.Session.essential_rules session ~minsup ~minconf);
      ignore
        (Olar_serve.Session.support_for_k_itemsets session
           ~containing:Itemset.empty ~k:10);
      ignore
        (Olar_serve.Session.support_for_k_rules session
           ~involving:Itemset.empty ~minconf ~k:10);
      if not (Itemset.is_empty !boundary_target) then
        ignore
          (Olar_serve.Session.boundary session ~target:!boundary_target ~minconf)
    in
    handle_below_threshold (fun () ->
        workload ();
        workload ();
        if !max_item >= 0 then begin
          (* a tiny delta over the lattice's own frequent items: enough to
             bump the epoch and exercise the append + invalidation path *)
          let rows = [ Itemset.to_list !boundary_target; [ !max_item ] ] in
          let delta = Database.of_lists ~num_items:(!max_item + 1) rows in
          ignore (Olar_serve.Session.append session delta);
          workload ()
        end);
    (match obs with
    | Some ctx ->
      Olar_obs.Obs.update_runtime_gauges ctx;
      Olar_obs.Obs.set_build_info ctx ~version
    | None -> ());
    Olar_obs.Obs.flush_opt obs;
    Option.iter close_out oc;
    Option.iter (fun path -> Format.printf "wrote trace %s@." path) trace;
    let registry =
      match obs with
      | Some ctx -> Olar_obs.Obs.metrics ctx
      | None -> assert false
    in
    match format with
    | `Text ->
      print_string (Olar_obs.Exposition.to_text registry);
      if Olar_serve.Session.enabled session then begin
        let open Olar_serve.Session in
        let s = stats session in
        Format.printf "session cache (budget %d bytes):@." s.budget_bytes;
        Format.printf "  hits       %d (%d served by refinement)@." s.hits
          s.refines;
        Format.printf "  misses     %d@." s.misses;
        Format.printf "  evictions  %d@." s.evictions;
        Format.printf "  resident   %d bytes in %d entries@." s.resident_bytes
          s.entries
      end
    | `Prometheus -> print_string (Olar_obs.Exposition.to_prometheus registry)
    | `Json ->
      print_endline
        (Olar_obs.Jsonx.to_string (Olar_obs.Exposition.to_json registry))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a canned query workload against a lattice and print the \
          telemetry registry (text, Prometheus exposition, or JSON), \
          including session-cache counters.")
    Term.(
      const run $ lattice_arg $ minsup_arg $ minconf_arg $ cache_arg
      $ format_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_cmd =
  let host_arg =
    Arg.(
      value
      & opt string Olar_net.Server.default_config.host
      & info [ "host" ] ~doc:"Bind address (an IP literal)." ~docv:"ADDR")
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port" ]
          ~doc:"TCP port to listen on; 0 picks an ephemeral port."
          ~docv:"PORT")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int Olar_net.Server.default_config.queue_depth
      & info [ "queue-depth" ]
          ~doc:
            "Admission-queue bound; queries arriving at capacity are shed \
             with 429."
          ~docv:"N")
  in
  let deadline_ms_arg =
    Arg.(
      value & opt float 0.0
      & info [ "deadline-ms" ]
          ~doc:
            "Per-request deadline in milliseconds from arrival; a query \
             still queued past it is dropped with 503. 0 disables."
          ~docv:"MS")
  in
  let trace_sample_arg =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ]
          ~doc:
            "With $(b,--trace), additionally emit a per-request trace (an \
             http.request span with six phase children) for every $(docv)th \
             query. 0 disables per-request traces (engine spans are still \
             emitted)."
          ~docv:"N")
  in
  let slo_p99_ms_arg =
    Arg.(
      value & opt float 0.0
      & info [ "slo-p99-ms" ]
          ~doc:
            "Latency SLO for $(b,GET /healthz): the rolling 60s \
             execute-phase p99 crossing $(docv) ms marks the server \
             degraded; crossing four times it answers 503 unhealthy. 0 \
             disables the latency check (shed/5xx-rate checks stay on)."
          ~docv:"MS")
  in
  let slow_ring_arg =
    Arg.(
      value & opt int Olar_net.Server.default_config.slow_ring
      & info [ "slow-ring" ]
          ~doc:
            "Capacity of the $(b,GET /statusz) slow-request ring; 0 \
             disables the ring (the stderr log and over-threshold count \
             remain)."
          ~docv:"N")
  in
  let run lattice_path host port domains cache_mb queue_depth deadline_ms
      record trace_sample slow_ms slo_p99_ms slow_ring metrics trace =
    warn_domains domains;
    if queue_depth <= 0 then
      or_die (Error "queue depth must be positive");
    if trace_sample < 0 then
      or_die (Error "--trace-sample must be non-negative");
    if slow_ring < 0 then
      or_die (Error "--slow-ring must be non-negative");
    if slo_p99_ms < 0.0 then
      or_die (Error "--slo-p99-ms must be non-negative");
    (* the server scrapes its registry over /metrics, so observability is
       always on; --metrics additionally prints the registry on exit *)
    let obs, finish_obs = make_obs ~force:true metrics trace in
    let engine = or_die (load_engine ~obs lattice_path) in
    let config =
      {
        Olar_net.Server.host;
        port;
        queue_depth;
        deadline_s = deadline_ms /. 1000.0;
        record;
        trace_sample;
        slow_s =
          (* absent --slow-ms disables the slow log; an explicit 0 logs
             every request (the Recorder >= convention) *)
          (match slow_ms with None -> infinity | Some ms -> ms /. 1000.0);
        slow_ring;
        slo_p99_s = slo_p99_ms /. 1000.0;
      }
    in
    let server =
      try
        Olar_net.Server.create ~config ?domains
          ~budget_bytes:(cache_mb * 1024 * 1024) engine
      with
      | Invalid_argument msg -> or_die (Error msg)
      | Unix.Unix_error (e, _, _) ->
        or_die
          (Error
             (Printf.sprintf "cannot bind %s:%d: %s" host port
                (Unix.error_message e)))
    in
    Format.printf "serving on %s (domains=%d, queue-depth=%d)@."
      (Olar_net.Server.url server)
      (Olar_serve.Pool.domains (Olar_net.Server.pool server))
      queue_depth;
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not (Atomic.get stop_requested) do
      Thread.delay 0.1
    done;
    Format.printf "shutting down: draining admitted queries@.";
    Olar_net.Server.stop server;
    Option.iter (fun path -> Format.printf "recorded %s@." path) record;
    finish_obs ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a lattice over HTTP: $(b,POST /query) takes a JSON query \
          key (the $(b,--record) wire format) and answers with the result \
          and its digest; $(b,GET /metrics) exposes Prometheus telemetry. \
          Queries dispatch continuously into per-domain submission shards \
          across $(b,--domains) \
          workers; overload is shed with 429 (queue full) and 503 \
          (deadline). With $(b,--record) served traffic is captured for \
          $(b,olar replay). Per-request latency splits into six traced \
          phases ($(b,--trace-sample), $(b,--slow-ms), $(b,GET /statusz)). \
          Runs until SIGINT/SIGTERM, then drains.")
    Term.(
      const run $ lattice_arg $ host_arg $ port_arg $ domains_arg
      $ cache_mb_arg $ queue_depth_arg $ deadline_ms_arg $ record_arg
      $ trace_sample_arg $ slow_ms_arg $ slo_p99_ms_arg $ slow_ring_arg
      $ metrics_flag $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* top *)

module Jx = Olar_obs.Jsonx

(* One dashboard frame from a parsed /statusz document. Missing fields
   (an older server, gc off) degrade to "-", never to a crash: top is
   an operator tool pointed at whatever happens to be running. *)
let render_top ~url v =
  let num p = Option.bind (Jx.path p v) Jx.number in
  let str p = Option.bind (Jx.path p v) Jx.to_str in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let fnum ?(scale = 1.0) ?(prec = 1) p =
    match num p with
    | Some x -> Printf.sprintf "%.*f" prec (x *. scale)
    | None -> "-"
  in
  let inum p =
    match num p with Some x -> Printf.sprintf "%.0f" x | None -> "-"
  in
  let health =
    match str [ "health"; "state" ] with
    | None -> "-"
    | Some s ->
      let reasons =
        match Jx.path [ "health"; "reasons" ] v with
        | Some (Jx.Arr (_ :: _ as rs)) ->
          " (" ^ String.concat "; " (List.filter_map Jx.to_str rs) ^ ")"
        | _ -> ""
      in
      String.uppercase_ascii s ^ reasons
  in
  line "olar top — %s   up %ss   domains %s   health %s" url
    (fnum ~prec:0 [ "uptime_s" ])
    (inum [ "domains" ]) health;
  line "window %ss (covered %ss): qps %s   shed %s   5xx %s   request p99 %sms"
    (fnum ~prec:0 [ "window"; "span_s" ])
    (fnum [ "window"; "covered_s" ])
    (fnum [ "window"; "qps" ])
    (inum [ "window"; "shed" ])
    (inum [ "window"; "http_5xx" ])
    (fnum ~scale:1e-3 ~prec:2 [ "window"; "request"; "p99_us" ]);
  line "phase p99 (ms): %s"
    (String.concat "  "
       (List.map
          (fun ph ->
            Printf.sprintf "%s %s" ph
              (fnum ~scale:1e-3 ~prec:2 [ "window"; "phases"; ph; "p99_us" ]))
          [ "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" ]));
  (match Jx.path [ "gc" ] v with
  | Some (Jx.Obj _) ->
    line "gc: pauses %s   windowed pause p99 %sms   calibrated %s"
      (inum [ "gc"; "pauses" ])
      (fnum ~scale:1e-3 ~prec:2 [ "gc"; "window"; "p99_us" ])
      (match Jx.path [ "gc"; "calibrated" ] v with
      | Some (Jx.Bool b) -> string_of_bool b
      | _ -> "-")
  | _ -> line "gc: (eventring consumer off)");
  line "queue depth %s (peak %s, limit %s)"
    (inum [ "queue"; "depth" ])
    (inum [ "queue"; "peak" ])
    (inum [ "queue"; "limit" ]);
  (match Jx.path [ "pool" ] v with
  | Some (Jx.Arr doms) ->
    line "domains: %s"
      (String.concat "  "
         (List.filter_map
            (fun d ->
              match
                ( Option.bind (Jx.member "domain" d) Jx.number,
                  Option.bind (Jx.member "utilization" d) Jx.number )
              with
              | Some k, Some u ->
                Some (Printf.sprintf "%.0f busy %.1f%%" k (u *. 100.0))
              | _ -> None)
            doms))
  | _ -> ());
  (match Jx.path [ "shards" ] v with
  | Some (Jx.Arr depths) ->
    line "shards: [%s]"
      (String.concat " "
         (List.filter_map
            (fun d -> Option.map (Printf.sprintf "%.0f") (Jx.number d))
            depths))
  | _ -> ());
  line "slow: seen %s (threshold %sms, ring %s)"
    (inum [ "slow"; "seen" ])
    (fnum [ "slow"; "threshold_ms" ])
    (inum [ "slow"; "capacity" ]);
  Buffer.contents buf

let top_cmd =
  let url_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info []
          ~doc:
            "Base URL of a running $(b,olar serve) (e.g. \
             http://127.0.0.1:8080)."
          ~docv:"URL")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~doc:"Refresh period in seconds." ~docv:"S")
  in
  let once_flag =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print one snapshot and exit (implied when stdout is not a \
             tty).")
  in
  let run url interval once =
    if not (interval > 0.0) then or_die (Error "--interval must be positive");
    let live = (not once) && Unix.isatty Unix.stdout in
    let fetch () =
      match Olar_net.Client.get ~url "/statusz" with
      | Error e -> Error e
      | Ok (200, body) -> (
        match Jx.of_string body with
        | Ok v -> Ok v
        | Error e -> Error ("malformed /statusz: " ^ e))
      | Ok (status, _) -> Error (Printf.sprintf "/statusz answered %d" status)
    in
    let show () =
      match fetch () with
      | Ok v ->
        if live then print_string "\027[H\027[2J";
        print_string (render_top ~url v);
        flush stdout;
        true
      | Error e ->
        (* in live mode a restarting server should not kill the view *)
        if live then begin
          print_string "\027[H\027[2J";
          Printf.printf "olar top — %s: %s (retrying)\n%!" url e;
          true
        end
        else begin
          Printf.eprintf "olar top: %s\n%!" e;
          false
        end
    in
    if live then
      while show () || true do
        Thread.delay interval
      done
    else if not (show ()) then exit 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running server's $(b,GET \
          /statusz): windowed qps, rolling per-phase p99s, per-domain \
          utilization, shard depths, GC pause quantiles and the health \
          verdict, refreshed every $(b,--interval) seconds. Outside a tty \
          (or with $(b,--once)) prints a single plain-text snapshot.")
    Term.(const run $ url_arg $ interval_arg $ once_flag)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "online generation of association rules (Aggarwal & Yu, ICDE 1998)" in
  let info = Cmd.info "olar" ~version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; preprocess_cmd; info_cmd; stats_cmd; items_cmd; rules_cmd;
            count_cmd;
            support_for_cmd; direct_cmd; update_cmd; condense_cmd;
            baskets_cmd; extend_cmd; dbinfo_cmd; replay_cmd; metrics_cmd;
            serve_cmd; top_cmd;
          ]))
