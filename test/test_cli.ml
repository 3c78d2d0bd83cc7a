(* Integration tests of the olar CLI binary: drive the full
   gen -> preprocess -> query -> update pipeline through the real
   executable. Skipped gracefully when the binary is not alongside the
   test runner (e.g. when tests are run from an install tree). *)

let cli_path () =
  let dir = Filename.dirname Sys.executable_name in
  let candidate = Filename.concat dir "../bin/olar_cli.exe" in
  if Sys.file_exists candidate then Some candidate else None

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Run a command, return (exit code, stdout lines, stderr lines). *)
let run_cli_split cli args =
  let out = Filename.temp_file "olar_cli" ".out" in
  let err = Filename.temp_file "olar_cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out; err ])
    (fun () ->
      let command =
        Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out) (Filename.quote err)
      in
      let code = Sys.command command in
      (code, read_lines out, read_lines err))

(* Run a command, return (exit code, stdout then stderr lines). *)
let run_cli cli args =
  let code, out, err = run_cli_split cli args in
  (code, out @ err)

let with_cli f () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli -> f cli

let contains lines needle =
  List.exists (fun l -> Helpers.contains_substring l needle) lines

let check_ok name (code, lines) =
  if code <> 0 then
    Alcotest.failf "%s exited %d: %s" name code (String.concat " | " lines)

let in_temp_dir f =
  let dir = Filename.temp_file "olar_cli" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_pipeline cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      let lattice = Filename.concat dir "data.lattice" in
      let delta = Filename.concat dir "delta.db" in
      let updated = Filename.concat dir "updated.lattice" in
      let csv = Filename.concat dir "rules.csv" in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T8.I3.D1K"; "--items"; "150"; "--seed"; "5"; "-o"; db ]);
      check_ok "preprocess"
        (run_cli cli
           [ "preprocess"; "-d"; db; "--max-itemsets"; "2000"; "-o"; lattice ]);
      check_ok "preprocess bytes"
        (run_cli cli
           [ "preprocess"; "-d"; db; "--max-bytes"; "300000"; "-o"; lattice ]);
      check_ok "preprocess fpgrowth"
        (run_cli cli
           [
             "preprocess"; "-d"; db; "--max-itemsets"; "2000"; "--miner";
             "fpgrowth"; "-o"; lattice;
           ]);
      let code, lines = run_cli cli [ "info"; "-l"; lattice ] in
      check_ok "info" (code, lines);
      Alcotest.(check bool) "info mentions itemsets" true
        (contains lines "primary itemsets");
      let code, lines =
        run_cli cli [ "items"; "-l"; lattice; "--minsup"; "0.02"; "--limit"; "3" ]
      in
      check_ok "items" (code, lines);
      Alcotest.(check bool) "items header" true (contains lines "itemsets");
      check_ok "rules"
        (run_cli cli
           [ "rules"; "-l"; lattice; "--minsup"; "0.01"; "--minconf"; "0.6" ]);
      check_ok "rules csv"
        (run_cli cli
           [
             "rules"; "-l"; lattice; "--minsup"; "0.01"; "--minconf"; "0.6";
             "--format"; "csv"; "--measures"; "-o"; csv;
           ]);
      let header = open_in csv in
      let first = input_line header in
      close_in header;
      Alcotest.(check bool) "csv header has lift" true
        (Helpers.contains_substring first "lift");
      check_ok "count"
        (run_cli cli
           [ "count"; "-l"; lattice; "--minsup"; "0.01"; "--minconf"; "0.6" ]);
      let code, lines = run_cli cli [ "support-for"; "-l"; lattice; "-k"; "10" ] in
      check_ok "support-for" (code, lines);
      Alcotest.(check bool) "support-for answers" true
        (contains lines "exist at minsup" || contains lines "fewer than");
      check_ok "gen delta"
        (run_cli cli
           [ "gen"; "--name"; "T8.I3.D200"; "--items"; "150"; "--seed"; "6"; "-o"; delta ]);
      let code, lines =
        run_cli cli [ "update"; "-l"; lattice; "--delta"; delta; "-o"; updated ]
      in
      check_ok "update" (code, lines);
      Alcotest.(check bool) "update reports fold" true (contains lines "folded");
      check_ok "condense"
        (run_cli cli
           [ "condense"; "-d"; db; "--minsup"; "0.02"; "--kind"; "maximal" ]);
      check_ok "direct sampling"
        (run_cli cli
           [
             "direct"; "-d"; db; "--minsup"; "0.02"; "--minconf"; "0.7";
             "--miner"; "sampling";
           ]);
      (* named-basket workflow *)
      let baskets = Filename.concat dir "shop.baskets" in
      let oc = open_out baskets in
      output_string oc "beer, chips\nbeer, chips, salsa\nbeer, chips\nbread\n";
      close_out oc;
      let named_db = Filename.concat dir "shop.db" in
      let vocab = Filename.concat dir "shop.vocab" in
      let named_lattice = Filename.concat dir "shop.lattice" in
      check_ok "baskets"
        (run_cli cli [ "baskets"; "-i"; baskets; "-o"; named_db; "--vocab-out"; vocab ]);
      check_ok "preprocess named"
        (run_cli cli [ "preprocess"; "-d"; named_db; "--support"; "0.2"; "-o"; named_lattice ]);
      let code, lines =
        run_cli cli
          [
            "rules"; "-l"; named_lattice; "--minsup"; "0.4"; "--minconf"; "0.9";
            "--vocab"; vocab;
          ]
      in
      check_ok "named rules" (code, lines);
      Alcotest.(check bool) "rules print names" true (contains lines "beer"))

let test_error_paths cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T5.I2.D200"; "--items"; "50"; "--seed"; "1"; "-o"; db ]);
      (* bad dataset name *)
      let code, _ = run_cli cli [ "gen"; "--name"; "bogus"; "-o"; db ] in
      Alcotest.(check bool) "bad name rejected" true (code <> 0);
      (* preprocess with both budgets *)
      let lattice = Filename.concat dir "l" in
      let code, _ =
        run_cli cli
          [
            "preprocess"; "-d"; db; "--max-itemsets"; "10"; "--support"; "0.1";
            "-o"; lattice;
          ]
      in
      Alcotest.(check bool) "conflicting budgets rejected" true (code <> 0);
      (* query below the primary threshold exits 2 *)
      check_ok "preprocess"
        (run_cli cli [ "preprocess"; "-d"; db; "--support"; "0.1"; "-o"; lattice ]);
      let code, lines =
        run_cli cli [ "items"; "-l"; lattice; "--minsup"; "0.01" ]
      in
      Alcotest.(check int) "below-threshold exit code" 2 code;
      Alcotest.(check bool) "explains the limitation" true
        (contains lines "primary threshold");
      (* malformed lattice file *)
      let bogus = Filename.concat dir "bogus.lattice" in
      let oc = open_out bogus in
      output_string oc "not a lattice\n";
      close_out oc;
      let code, _ = run_cli cli [ "info"; "-l"; bogus ] in
      Alcotest.(check bool) "malformed rejected" true (code <> 0))

let test_domains_flag cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      let lattice = Filename.concat dir "l" in
      let log = Filename.concat dir "queries.jsonl" in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T5.I2.D200"; "--items"; "50"; "--seed"; "2"; "-o"; db ]);
      (* zero, negative and unparsable counts are cmdliner usage errors
         (exit 124), not silent clamps deep inside the mining layer *)
      List.iter
        (fun bad ->
          let code, lines =
            run_cli cli
              [
                "preprocess"; "-d"; db; "--support"; "0.05";
                "--domains=" ^ bad; "-o"; lattice;
              ]
          in
          Alcotest.(check int) ("--domains=" ^ bad ^ " rejected") 124 code;
          Alcotest.(check bool) "message names the count" true
            (contains lines "domain count"))
        [ "0"; "-3"; "two" ];
      (* oversubscription warns but proceeds *)
      let code, lines =
        run_cli cli
          [
            "preprocess"; "-d"; db; "--support"; "0.05"; "--domains"; "64";
            "-o"; lattice;
          ]
      in
      check_ok "preprocess with 64 domains" (code, lines);
      Alcotest.(check bool) "warns about oversubscription" true
        (contains lines "recommended domain count");
      (* capture a small log, then replay it through a serving pool *)
      check_ok "record queries"
        (run_cli cli
           [ "items"; "-l"; lattice; "--minsup"; "0.05"; "--record"; log ]);
      let code, lines =
        run_cli cli [ "replay"; "-l"; lattice; log; "--domains"; "4" ]
      in
      check_ok "pool replay" (code, lines);
      Alcotest.(check bool) "reports the pool width" true
        (contains lines "pool: 4 domains");
      Alcotest.(check bool) "zero mismatches" true
        (contains lines "0 mismatches");
      (* tracing is sharded per domain now, so a traced pool replay
         works and merges every domain's spans into one file *)
      let trace = Filename.concat dir "trace.jsonl" in
      let code, lines =
        run_cli cli
          [ "replay"; "-l"; lattice; log; "--domains"; "2"; "--trace"; trace ]
      in
      check_ok "traced pool replay" (code, lines);
      Alcotest.(check bool) "still zero mismatches" true
        (contains lines "0 mismatches");
      let ic = open_in trace in
      let n = ref 0 in
      let tagged = ref true in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             incr n;
             if not (Helpers.contains_substring line "\"domain\"") then
               tagged := false
           end
         done
       with End_of_file -> close_in ic);
      Alcotest.(check bool) "trace file has spans" true (!n > 0);
      Alcotest.(check bool) "every span is domain-tagged" true !tagged)

(* The text header's elapsed time ("N itemsets (0.0012s):") is the one
   field of a query's stdout that differs run to run. *)
let mask_elapsed line =
  match String.index_opt line '(' with
  | Some i when String.ends_with ~suffix:"s):" line ->
    String.sub line 0 i ^ "(elapsed):"
  | _ -> line

(* Every query command prints the same stdout whether it runs with the
   cache off, through an 8 MiB session cache, or under --record; a query
   below the primary threshold fails the same way in each mode; and the
   uncached run still reports the per-kind query latency histogram. *)
let test_query_parity cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      let lattice = Filename.concat dir "data.lattice" in
      let log = Filename.concat dir "queries.jsonl" in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T10.I6.D1K"; "--items"; "60"; "--seed"; "5"; "-o"; db ]);
      check_ok "preprocess"
        (run_cli cli [ "preprocess"; "-d"; db; "--support"; "0.03"; "-o"; lattice ]);
      let modes =
        [
          ("--cache-mb 0", [ "--cache-mb"; "0" ]);
          ("--cache-mb 8", [ "--cache-mb"; "8" ]);
          ("--record", [ "--record"; log ]);
        ]
      in
      let query args mode = run_cli_split cli (args @ [ "-l"; lattice ] @ mode) in
      (* (query, the olar_query_<kind>_seconds it must report) *)
      let queries =
        [
          ([ "items"; "--minsup"; "0.04"; "--limit"; "1000" ], "itemsets");
          ([ "items"; "--minsup"; "0.035"; "--format"; "csv" ], "itemsets");
          ( [ "rules"; "--minsup"; "0.03"; "--minconf"; "0.3"; "--limit"; "1000" ],
            "essential_rules" );
          ( [ "rules"; "--minsup"; "0.03"; "--minconf"; "0.3"; "--all";
              "--limit"; "1000" ],
            "all_rules" );
          ( [ "rules"; "--minsup"; "0.03"; "--minconf"; "0.3";
              "--single-consequent"; "--limit"; "1000" ],
            "single_consequent_rules" );
          ([ "count"; "--minsup"; "0.03" ], "count_itemsets");
          ([ "count"; "--minsup"; "0.03"; "--minconf"; "0.3" ], "count_itemsets");
          ([ "support-for"; "-k"; "10" ], "support_for_k_itemsets");
          ([ "support-for"; "-k"; "10"; "--minconf"; "0.3" ], "support_for_k_rules");
        ]
      in
      List.iter
        (fun (args, kind) ->
          let name = String.concat " " args in
          let baseline = ref None in
          List.iter
            (fun (label, mode) ->
              let code, out, err = query args mode in
              check_ok (name ^ " " ^ label) (code, out @ err);
              let out = List.map mask_elapsed out in
              match !baseline with
              | None -> baseline := Some out
              | Some expected ->
                Alcotest.(check (list string))
                  (Printf.sprintf "%s: %s stdout" name label)
                  expected out)
            modes;
          let code, out, err = query (args @ [ "--metrics" ]) [ "--cache-mb"; "0" ] in
          check_ok (name ^ " --metrics") (code, out @ err);
          let metric = Printf.sprintf "olar_query_%s_seconds" kind in
          Alcotest.(check bool) (name ^ " reports " ^ metric) true
            (contains out metric))
        queries;
      Alcotest.(check int) "--record logged every recorded query"
        (List.length queries) (List.length (read_lines log));
      List.iter
        (fun args ->
          let name = String.concat " " args in
          let first = ref None in
          List.iter
            (fun (label, mode) ->
              let code, out, err = query args mode in
              Alcotest.(check int) (name ^ " " ^ label ^ ": exit code") 2 code;
              Alcotest.(check (list string)) (name ^ " " ^ label ^ ": stdout") [] out;
              let message =
                List.filter
                  (fun l -> Helpers.contains_substring l "primary threshold")
                  err
              in
              Alcotest.(check int) (name ^ " " ^ label ^ ": one message") 1
                (List.length message);
              match !first with
              | None -> first := Some message
              | Some expected ->
                Alcotest.(check (list string)) (name ^ " " ^ label ^ ": message")
                  expected message)
            modes)
        [
          [ "items"; "--minsup"; "0.01" ];
          [ "rules"; "--minsup"; "0.01"; "--minconf"; "0.3" ];
          [ "count"; "--minsup"; "0.01" ];
        ])

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "full pipeline" `Quick (with_cli test_pipeline);
        Alcotest.test_case "error paths" `Quick (with_cli test_error_paths);
        Alcotest.test_case "--domains validation and pool replay" `Quick
          (with_cli test_domains_flag);
        Alcotest.test_case "query output parity across cache modes" `Quick
          (with_cli test_query_parity);
      ] );
  ]
