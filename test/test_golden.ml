(* The golden capture log: test/golden/capture.jsonl holds 320 records
   (every query kind, constrained rule and boundary queries, one
   mid-stream append) captured over the Quest database below. It was
   recorded once, by the per-kind recorder that predates [Pool.exec],
   and is never regenerated to make this test pass: it pins the digest
   semantics themselves. [@replay-smoke] records and replays with the
   same code, so a change to how a result is digested slips past it; a
   log recorded by an earlier build does not.

   The log replays with zero mismatches three ways: serially through a
   session at cache budgets 0 and 8 MiB, and through a 2-domain pool.
   Regenerate it only when the digest semantics change on purpose, and
   say so in the change log. *)

open Olar_data
module Engine = Olar_core.Engine
module Session = Olar_serve.Session
module Pool = Olar_serve.Pool
module Record = Olar_replay.Record
module Replay = Olar_replay.Replay

let check = Alcotest.check

(* The capture's database and lattice: T8.I3.D2000 over 120 items,
   Quest seed 23, preprocessed at 1% primary support. *)
let primary_support = 0.01

let params =
  Olar_datagen.Params.make
    ~over:
      {
        Olar_datagen.Params.default with
        num_items = 120;
        num_potential = 200;
        seed = 23;
      }
    ~avg_transaction_size:8.0 ~avg_itemset_size:3.0 ~num_transactions:2000 ()

let db = lazy (Olar_datagen.Quest.generate params)

(* A fresh engine per replay: replayed appends advance it. *)
let fresh_engine () = Engine.at_threshold (Lazy.force db) ~primary_support

let log_path () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat "golden" "capture.jsonl")

let records =
  lazy
    (match Replay.load (log_path ()) with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "cannot load the golden log: %s" e)

(* The log must keep covering what it is meant to pin. *)
let test_coverage () =
  let rs = Lazy.force records in
  check Alcotest.int "record count" 320 (List.length rs);
  List.iter
    (fun kind ->
      check Alcotest.bool
        ("has a " ^ Record.kind_to_string kind ^ " record")
        true
        (List.exists (fun (r : Record.t) -> r.Record.kind = kind) rs))
    Record.
      [
        Find_itemsets; Count_itemsets; Essential_rules; All_rules;
        Single_consequent_rules; Support_for_k_itemsets; Support_for_k_rules;
        Boundary; Append;
      ];
  let has p = List.exists p rs in
  check Alcotest.bool "append is mid-stream" true
    (has (fun r ->
         r.Record.kind = Record.Append && r.Record.seq > 0
         && r.Record.seq < List.length rs - 1));
  check Alcotest.bool "antecedent constraints" true
    (has (fun r -> not (Itemset.is_empty r.Record.antecedent_includes)));
  check Alcotest.bool "consequent constraints" true
    (has (fun r -> not (Itemset.is_empty r.Record.consequent_includes)));
  check Alcotest.bool "allow_empty_antecedent" true
    (has (fun r -> r.Record.allow_empty_antecedent))

let expect_clean label (report : Replay.report) =
  check Alcotest.int (label ^ ": total") 320 report.Replay.total;
  check Alcotest.int (label ^ ": mismatches") 0 report.Replay.mismatches;
  check Alcotest.int (label ^ ": errors") 0 report.Replay.errors

let test_serial budget_bytes () =
  let session = Session.create ~budget_bytes (fresh_engine ()) in
  expect_clean
    (Printf.sprintf "serial at %d bytes" budget_bytes)
    (Replay.run session (Lazy.force records))

let test_pool () =
  Pool.with_pool ~domains:2 ~budget_bytes:(8 lsl 20) (fresh_engine ())
    (fun pool ->
      expect_clean "2-domain pool" (Replay.run_pool pool (Lazy.force records)))

let case name fn = Alcotest.test_case name `Quick fn

let suites =
  [
    ( "replay.golden",
      [
        case "log covers every kind" test_coverage;
        case "serial replay, cache off" (test_serial 0);
        case "serial replay, 8 MiB cache" (test_serial (8 lsl 20));
        case "2-domain pool replay" test_pool;
      ] );
  ]
