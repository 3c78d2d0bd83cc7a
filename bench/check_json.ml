(* Validates a bench --json document: parses it with the same Jsonx the
   harness wrote it with and checks the structure the downstream
   tooling relies on. Exit 0 on success, 1 with a message otherwise.
   Wired into the @bench-json alias so CI fails on malformed output. *)

module J = Olar_obs.Jsonx

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_json: " ^ m); exit 1) fmt

let require what = function Some v -> v | None -> fail "missing %s" what

let number what v = require what (Option.bind v J.number)

let () =
  let path = match Sys.argv with [| _; p |] -> p | _ -> fail "usage: check_json FILE" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc = match J.of_string text with Ok v -> v | Error e -> fail "%s: %s" path e in
  let version = number "schema_version" (J.member "schema_version" doc) in
  if version <> 1.0 then fail "unsupported schema_version %g" version;
  ignore (require "scale" (Option.bind (J.member "scale" doc) J.to_str));
  let experiments = require "experiments" (J.member "experiments" doc) in
  let qps = require "experiments.qps" (J.member "qps" experiments) in
  ignore (number "qps.lattice.vertices" (J.path [ "lattice"; "vertices" ] qps));
  let scenarios =
    require "qps.scenarios"
      (Option.bind (J.member "scenarios" qps) J.to_list)
  in
  if scenarios = [] then fail "qps.scenarios is empty";
  List.iter
    (fun s ->
      let name =
        require "scenario.name" (Option.bind (J.member "name" s) J.to_str)
      in
      let check what v =
        let x = number (name ^ "." ^ what) v in
        if x < 0.0 then fail "%s.%s is negative" name what
      in
      check "qps" (J.member "qps" s);
      check "queries" (J.member "queries" s);
      check "latency.p50_us" (J.path [ "latency"; "p50_us" ] s);
      check "latency.p99_us" (J.path [ "latency"; "p99_us" ] s);
      check "latency.samples" (J.path [ "latency"; "samples" ] s);
      check "work.total" (J.path [ "work"; "total" ] s))
    scenarios;
  (* session is optional (only present when that experiment ran), but
     when present each scenario must carry both sides of the cached vs
     uncached comparison plus the cache accounting. *)
  (match J.member "session" experiments with
  | None -> ()
  | Some session ->
    let scenarios =
      require "session.scenarios"
        (Option.bind (J.member "scenarios" session) J.to_list)
    in
    if scenarios = [] then fail "session.scenarios is empty";
    List.iter
      (fun s ->
        let name =
          require "session scenario.name"
            (Option.bind (J.member "name" s) J.to_str)
        in
        let check what v =
          let x = number ("session." ^ name ^ "." ^ what) v in
          if x < 0.0 then fail "session.%s.%s is negative" name what
        in
        check "cached.qps" (J.path [ "cached"; "qps" ] s);
        check "cached.queries" (J.path [ "cached"; "queries" ] s);
        check "uncached.qps" (J.path [ "uncached"; "qps" ] s);
        check "uncached.queries" (J.path [ "uncached"; "queries" ] s);
        check "speedup" (J.member "speedup" s);
        check "cache.hits" (J.path [ "cache"; "hits" ] s);
        check "cache.misses" (J.path [ "cache"; "misses" ] s);
        check "cache.refines" (J.path [ "cache"; "refines" ] s);
        check "cache.evictions" (J.path [ "cache"; "evictions" ] s);
        check "cache.resident_bytes" (J.path [ "cache"; "resident_bytes" ] s))
      scenarios);
  (* concurrent is optional (only present when that experiment ran);
     when present each scenario must carry a non-empty domain sweep
     with qps and latency quantiles per point. *)
  (match J.member "concurrent" experiments with
  | None -> ()
  | Some concurrent ->
    ignore
      (number "concurrent.recommended_domains"
         (J.member "recommended_domains" concurrent));
    let scenarios =
      require "concurrent.scenarios"
        (Option.bind (J.member "scenarios" concurrent) J.to_list)
    in
    if scenarios = [] then fail "concurrent.scenarios is empty";
    List.iter
      (fun s ->
        let name =
          require "concurrent scenario.name"
            (Option.bind (J.member "name" s) J.to_str)
        in
        let points =
          require
            ("concurrent." ^ name ^ ".points")
            (Option.bind (J.member "points" s) J.to_list)
        in
        if points = [] then fail "concurrent.%s.points is empty" name;
        List.iter
          (fun p ->
            let check what v =
              let x = number ("concurrent." ^ name ^ "." ^ what) v in
              if x < 0.0 then fail "concurrent.%s.%s is negative" name what
            in
            let domains =
              number
                ("concurrent." ^ name ^ ".domains")
                (J.member "domains" p)
            in
            if domains < 1.0 then fail "concurrent.%s.domains < 1" name;
            check "qps" (J.member "qps" p);
            check "queries" (J.member "queries" p);
            check "speedup_vs_1" (J.member "speedup_vs_1" p);
            check "latency.p50_us" (J.path [ "latency"; "p50_us" ] p);
            check "latency.p99_us" (J.path [ "latency"; "p99_us" ] p);
            check "latency.samples" (J.path [ "latency"; "samples" ] p))
          points)
      scenarios);
  (* append is optional (only present when that experiment ran); when
     present it carries both phases of the read-latency-under-appends
     comparison: the baseline and during-appends sides each with qps
     and latency quantiles, plus the append accounting and the p99
     ratio the acceptance gate reads. *)
  (match J.member "append" experiments with
  | None -> ()
  | Some append ->
    let domains = number "append.domains" (J.member "domains" append) in
    if domains < 1.0 then fail "append.domains < 1";
    let check what v =
      let x = number ("append." ^ what) v in
      if x < 0.0 then fail "append.%s is negative" what
    in
    List.iter
      (fun phase ->
        check (phase ^ ".qps") (J.path [ phase; "qps" ] append);
        check (phase ^ ".queries") (J.path [ phase; "queries" ] append);
        check (phase ^ ".latency.p50_us") (J.path [ phase; "latency"; "p50_us" ] append);
        check (phase ^ ".latency.p99_us") (J.path [ phase; "latency"; "p99_us" ] append);
        check (phase ^ ".latency.samples")
          (J.path [ phase; "latency"; "samples" ] append))
      [ "baseline"; "during" ];
    let appends = number "append.appends" (J.member "appends" append) in
    if appends < 1.0 then fail "append.appends < 1 - no live appends folded";
    check "promoted" (J.member "promoted" append);
    check "generations" (J.member "generations" append);
    check "p99_ratio" (J.member "p99_ratio" append));
  (* serve is optional (only present when that experiment ran); when
     present each scenario is one (name, clients) point of the loopback
     HTTP sweep and must carry wire qps, the shed count and latency
     quantiles. *)
  (match J.member "serve" experiments with
  | None -> ()
  | Some serve ->
    let domains = number "serve.domains" (J.member "domains" serve) in
    if domains < 1.0 then fail "serve.domains < 1";
    let scenarios =
      require "serve.scenarios"
        (Option.bind (J.member "scenarios" serve) J.to_list)
    in
    if scenarios = [] then fail "serve.scenarios is empty";
    List.iter
      (fun s ->
        let name =
          require "serve scenario.name"
            (Option.bind (J.member "name" s) J.to_str)
        in
        let check what v =
          let x = number ("serve." ^ name ^ "." ^ what) v in
          if x < 0.0 then fail "serve.%s.%s is negative" name what
        in
        let clients = number ("serve." ^ name ^ ".clients") (J.member "clients" s) in
        if clients < 1.0 then fail "serve.%s.clients < 1" name;
        check "qps" (J.member "qps" s);
        check "queries" (J.member "queries" s);
        check "shed" (J.member "shed" s);
        check "latency.p50_us" (J.path [ "latency"; "p50_us" ] s);
        check "latency.p99_us" (J.path [ "latency"; "p99_us" ] s);
        check "latency.samples" (J.path [ "latency"; "samples" ] s);
        (* the /statusz phase attribution: all six phases, each with a
           sample count, a time sum and quantiles, none negative *)
        let queries = number ("serve." ^ name ^ ".queries") (J.member "queries" s) in
        List.iter
          (fun phase ->
            check ("phases." ^ phase ^ ".sum_s")
              (J.path [ "phases"; phase; "sum_s" ] s);
            check ("phases." ^ phase ^ ".p50_us")
              (J.path [ "phases"; phase; "p50_us" ] s);
            check ("phases." ^ phase ^ ".p99_us")
              (J.path [ "phases"; phase; "p99_us" ] s);
            let c =
              number
                ("serve." ^ name ^ ".phases." ^ phase ^ ".count")
                (J.path [ "phases"; phase; "count" ] s)
            in
            if c < queries then
              fail "serve.%s.phases.%s.count %g < queries %g" name phase c
                queries;
            (* one scenario's phases cover that scenario alone: a client
               may have one query past its last counted answer, no
               more *)
            if phase = "execute" && c > queries +. clients then
              fail
                "serve.%s.phases.execute.count %g > queries %g + clients %g \
                 (phases cover earlier scenarios too)"
                name c queries clients)
          [ "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" ];
        (* the sliding-window view: rates plus a rolling p99 per phase *)
        check "window.qps" (J.path [ "window"; "qps" ] s);
        check "window.covered_s" (J.path [ "window"; "covered_s" ] s);
        check "window.queries" (J.path [ "window"; "queries" ] s);
        List.iter
          (fun phase ->
            check ("window.phases." ^ phase ^ ".p99_us")
              (J.path [ "window"; "phases"; phase; "p99_us" ] s);
            check ("window.phases." ^ phase ^ ".count")
              (J.path [ "window"; "phases"; phase; "count" ] s))
          [ "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" ];
        (* the GC eventring summary: pause count plus windowed pause
           quantiles (the olar_gc_pause_seconds series' /statusz view) *)
        (match J.member "gc" s with
        | None -> fail "serve.%s lacks the gc section" name
        | Some gc ->
          check "gc.pauses" (J.member "pauses" gc);
          check "gc.window.p99_us" (J.path [ "window"; "p99_us" ] gc)))
      scenarios);
  (* dispatch is optional (only present when the dispatch microbench
     merged its sweep in); when present each point is one (mode,
     domains) cell of the continuous-dispatch grid. *)
  (match J.member "dispatch" experiments with
  | None -> ()
  | Some dispatch ->
    let requests = number "dispatch.requests" (J.member "requests" dispatch) in
    if requests < 1.0 then fail "dispatch.requests < 1";
    let points =
      require "dispatch.points"
        (Option.bind (J.member "points" dispatch) J.to_list)
    in
    if points = [] then fail "dispatch.points is empty";
    List.iter
      (fun p ->
        let mode =
          require "dispatch point.mode"
            (Option.bind (J.member "mode" p) J.to_str)
        in
        let scheduler =
          require
            ("dispatch." ^ mode ^ ".scheduler")
            (Option.bind (J.member "scheduler" p) J.to_str)
        in
        if scheduler <> "submit" then
          fail "dispatch.%s.scheduler %S is not submit" mode scheduler;
        let domains =
          number ("dispatch." ^ mode ^ ".domains") (J.member "domains" p)
        in
        if domains < 1.0 then fail "dispatch.%s.domains < 1" mode;
        let check what v =
          let x = number ("dispatch." ^ mode ^ "." ^ what) v in
          if x < 0.0 then fail "dispatch.%s.%s is negative" mode what
        in
        check "qps" (J.member "qps" p);
        check "queries" (J.member "queries" p);
        check "seconds" (J.member "seconds" p))
      points);
  (* fig10 is optional (only present when that experiment ran), but when
     present its points must carry the rule/work fields. *)
  (match J.member "fig10" experiments with
  | None -> ()
  | Some fig10 ->
    let points =
      require "fig10.points" (Option.bind (J.member "points" fig10) J.to_list)
    in
    List.iter
      (fun p ->
        ignore (number "fig10.point.rules" (J.member "rules" p));
        ignore (number "fig10.point.work" (J.member "work" p));
        ignore (number "fig10.point.seconds" (J.member "seconds" p)))
      points);
  Printf.printf "check_json: %s ok (%d scenarios)\n" path (List.length scenarios)
