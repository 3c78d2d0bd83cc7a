(* The network layer: HTTP/1.1 parser battery (units + properties) and
   loopback tests driving a real [Olar_net.Server] over TCP sockets —
   the pool-vs-serial digest oracle extended across the wire, plus the
   overload/shedding and deadline behaviours. *)

module Http = Olar_net.Http
module Server = Olar_net.Server
module Client = Olar_net.Client
module Session = Olar_serve.Session
module Engine = Olar_core.Engine
module Record = Olar_replay.Record
module Replay = Olar_replay.Replay
module Fnv = Olar_replay.Fnv
module Jsonx = Olar_obs.Jsonx

let check = Alcotest.check
let case name fn = Alcotest.test_case name `Quick fn

(* ------------------------------------------------------------------ *)
(* Parser units                                                       *)
(* ------------------------------------------------------------------ *)

let parse_ok ?max_head ?max_body ?(off = 0) s =
  match Http.parse_request ?max_head ?max_body s ~off with
  | Http.Complete (req, used) -> (req, used)
  | Http.Incomplete -> Alcotest.fail "unexpectedly incomplete"
  | Http.Failed { status; reason } ->
    Alcotest.failf "unexpectedly failed: %d %s" status reason

let parse_status ?max_head ?max_body s =
  match Http.parse_request ?max_head ?max_body s ~off:0 with
  | Http.Failed { status; _ } -> status
  | Http.Complete _ -> Alcotest.fail "expected failure, parsed fine"
  | Http.Incomplete -> Alcotest.fail "expected failure, got incomplete"

let test_simple_request () =
  let s = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n" in
  let req, used = parse_ok s in
  check Alcotest.string "method" "GET" req.Http.meth;
  check Alcotest.string "target" "/healthz" req.Http.target;
  check Alcotest.string "body" "" req.Http.body;
  check Alcotest.int "used = whole message" (String.length s) used;
  check
    Alcotest.(option string)
    "host header (names lowercased)" (Some "localhost")
    (Http.header req "host")

let test_header_folding () =
  let s = "GET / HTTP/1.1\r\nX-Long: alpha\r\n  beta\r\n\tgamma\r\nA: b\r\n\r\n" in
  let req, _ = parse_ok s in
  check
    Alcotest.(option string)
    "continuation lines joined with a single space" (Some "alpha beta gamma")
    (Http.header req "x-long");
  check Alcotest.(option string) "next header intact" (Some "b")
    (Http.header req "a")

let test_missing_content_length_means_empty_body () =
  (* no Content-Length: the message ends at the blank line even when
     more bytes follow (they belong to the next pipelined message) *)
  let head = "POST /query HTTP/1.1\r\n\r\n" in
  let req, used = parse_ok (head ^ "LEFTOVER") in
  check Alcotest.string "empty body" "" req.Http.body;
  check Alcotest.int "used stops at the blank line" (String.length head) used

let test_content_length_zero () =
  let req, _ = parse_ok "POST /q HTTP/1.1\r\nContent-Length: 0\r\n\r\n" in
  check Alcotest.string "empty body" "" req.Http.body

let test_content_length_exact () =
  let s = "POST /q HTTP/1.1\r\ncontent-length: 5\r\n\r\nhelloGET /nxt" in
  let req, used = parse_ok s in
  check Alcotest.string "body" "hello" req.Http.body;
  check Alcotest.int "used = head + body"
    (String.length s - String.length "GET /nxt")
    used

let test_content_length_edge_cases () =
  check Alcotest.int "overflowing length is 413" 413
    (parse_status
       "POST /q HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n");
  check Alcotest.int "non-digit length is 400" 400
    (parse_status "POST /q HTTP/1.1\r\nContent-Length: five\r\n\r\n");
  check Alcotest.int "negative length is 400" 400
    (parse_status "POST /q HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
  check Alcotest.int "empty length is 400" 400
    (parse_status "POST /q HTTP/1.1\r\nContent-Length:\r\n\r\n");
  check Alcotest.int "conflicting duplicates are 400" 400
    (parse_status
       "POST /q HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd");
  (* agreeing duplicates are legal per RFC 7230 3.3.2 *)
  let req, _ =
    parse_ok "POST /q HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"
  in
  check Alcotest.string "agreeing duplicates parse" "abc" req.Http.body;
  check Alcotest.int "body over max_body is 413" 413
    (parse_status ~max_body:4 "POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")

let test_reject_unsupported () =
  check Alcotest.int "transfer-encoding is 501" 501
    (parse_status "POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  check Alcotest.int "unknown version is 505" 505
    (parse_status "GET / HTTP/2.0\r\n\r\n");
  check Alcotest.int "2-field request line is 400" 400
    (parse_status "GET /\r\n\r\n");
  check Alcotest.int "4-field request line is 400" 400
    (parse_status "GET / HTTP/1.1 extra\r\n\r\n");
  check Alcotest.int "non-token method is 400" 400
    (parse_status "GE T / HTTP/1.1\r\n\r\n");
  check Alcotest.int "stray CR inside a header is 400" 400
    (parse_status "GET / HTTP/1.1\r\nA: b\rc\r\n\r\n");
  check Alcotest.int "oversized head is 431" 431
    (parse_status ~max_head:16
       "GET / HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n")

let test_bare_lf_tolerated () =
  let req, _ = parse_ok "GET /x HTTP/1.1\nHost: h\n\n" in
  check Alcotest.string "target" "/x" req.Http.target;
  check Alcotest.(option string) "header" (Some "h") (Http.header req "host")

let test_pipelined_requests () =
  let a = "GET /one HTTP/1.1\r\n\r\n" in
  let b = "POST /two HTTP/1.1\r\nContent-Length: 2\r\n\r\nok" in
  let s = a ^ b in
  let r1, u1 = parse_ok s in
  check Alcotest.string "first target" "/one" r1.Http.target;
  let r2, u2 = parse_ok ~off:u1 s in
  check Alcotest.string "second target" "/two" r2.Http.target;
  check Alcotest.string "second body" "ok" r2.Http.body;
  check Alcotest.int "both consumed" (String.length s) (u1 + u2)

(* Feed the message one byte at a time: every proper prefix must be
   Incomplete (never Failed, never a premature Complete). *)
let trickle_is_incomplete s =
  let ok = ref true in
  for i = 0 to String.length s - 1 do
    match Http.parse_request (String.sub s 0 i) ~off:0 with
    | Http.Incomplete -> ()
    | Http.Complete _ | Http.Failed _ -> ok := false
  done;
  !ok

let test_trickled_bytes () =
  let s =
    "POST /query HTTP/1.1\r\nX-Fold: a\r\n b\r\nContent-Length: 4\r\n\r\nbody"
  in
  check Alcotest.bool "all proper prefixes incomplete" true
    (trickle_is_incomplete s);
  let req, used = parse_ok s in
  check Alcotest.int "complete exactly at the end" (String.length s) used;
  check Alcotest.string "body survives the trickle" "body" req.Http.body

let test_response_round_trip () =
  let s =
    Http.render_response
      ~headers:[ ("content-type", "application/json") ]
      ~status:429 "busy"
  in
  match Http.parse_response s ~off:0 with
  | Http.Complete (resp, used) ->
    check Alcotest.int "status" 429 resp.Http.status;
    check Alcotest.string "reason" "Too Many Requests" resp.Http.reason;
    check Alcotest.string "body" "busy" resp.Http.resp_body;
    check
      Alcotest.(option string)
      "content-type kept" (Some "application/json")
      (Http.response_header resp "content-type");
    check Alcotest.int "fully consumed" (String.length s) used
  | _ -> Alcotest.fail "rendered response must parse"

(* One rule for a response without Content-Length, shared with the
   client: the body is empty, and whatever follows the head is the next
   message. *)
let test_response_without_content_length () =
  let head = "HTTP/1.1 200 OK\r\nx-a: 1\r\n\r\n" in
  let s = head ^ "HTTP/1.1 204 No Content\r\n\r\n" in
  (match Http.parse_response s ~off:0 with
  | Http.Complete (resp, used) ->
    check Alcotest.string "empty body" "" resp.Http.resp_body;
    check Alcotest.int "head only consumed" (String.length head) used
  | _ -> Alcotest.fail "response without content-length must parse");
  match Http.parse_response_head s ~off:0 with
  | Http.Complete ((resp, n), used) ->
    check Alcotest.int "declared body length" 0 n;
    check Alcotest.int "status" 200 resp.Http.status;
    check Alcotest.int "head size" (String.length head) used
  | _ -> Alcotest.fail "head must parse"

(* The head parser reads the same grammar as [parse_response], and the
   terminator scan finds CRLF and bare-LF blank lines wherever a read
   boundary splits them. *)
let test_response_head_and_head_end () =
  let s =
    Http.render_response ~headers:[ ("x-k", "v") ] ~status:200 "0123456789"
  in
  (match Http.parse_response_head s ~off:0 with
  | Http.Complete ((resp, n), used) ->
    check Alcotest.int "body length" 10 n;
    check Alcotest.string "body starts after the head" "0123456789"
      (String.sub s used (String.length s - used));
    check Alcotest.(option string) "header kept" (Some "v")
      (Http.response_header resp "x-k")
  | _ -> Alcotest.fail "rendered head must parse");
  (match
     Http.parse_response_head
       "HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n" ~off:0
   with
  | Http.Failed { status; _ } ->
    check Alcotest.int "bad length rejected" 400 status
  | _ -> Alcotest.fail "malformed content-length accepted");
  List.iter
    (fun head ->
      let expect = String.length head in
      let b = Bytes.of_string (head ^ "body") in
      let len = Bytes.length b in
      check Alcotest.(option int) ("whole " ^ String.escaped head) (Some expect)
        (Http.head_end b ~from:0 ~len);
      (* every split point: scan the prefix, then resume two bytes
         before its end over the rest *)
      for cut = 0 to String.length head do
        match Http.head_end b ~from:0 ~len:cut with
        | Some e -> check Alcotest.int "prefix hit is the end" expect e
        | None ->
          check Alcotest.(option int) "resumed scan" (Some expect)
            (Http.head_end b ~from:(cut - 2) ~len)
      done)
    [
      "HTTP/1.1 200 OK\r\na: b\r\n\r\n";
      "HTTP/1.1 200 OK\na: b\n\n";
      "HTTP/1.1 200 OK\r\n\r\n";
    ]

(* ------------------------------------------------------------------ *)
(* Parser properties                                                  *)
(* ------------------------------------------------------------------ *)

(* The never-raise guarantee: any byte soup gives a verdict. *)
let never_raises buf =
  match Http.parse_request buf ~off:0 with
  | Http.Complete _ | Http.Incomplete | Http.Failed _ -> true
  | exception _ -> false

let fuzz_prop =
  QCheck2.Test.make ~name:"parse_request never raises on random bytes"
    ~count:2000 ~print:String.escaped
    QCheck2.Gen.(string_size ~gen:char (int_range 0 200))
    never_raises

let fuzz_headers_prop =
  QCheck2.Test.make
    ~name:"parse_request never raises on a valid line + random bytes"
    ~count:2000 ~print:String.escaped
    QCheck2.Gen.(
      map
        (fun s -> "POST /query HTTP/1.1\r\n" ^ s)
        (string_size ~gen:char (int_range 0 200)))
    never_raises

let request_gen =
  let open QCheck2.Gen in
  let* meth = oneofl [ "GET"; "POST"; "PUT"; "DELETE" ] in
  let* path = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
  let* headers =
    list_size (int_range 0 5)
      (pair
         (map (fun s -> "x-" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))
         (string_size ~gen:(char_range 'a' 'z') (int_range 0 12)))
  in
  let* body = string_size ~gen:char (int_range 0 64) in
  return (meth, "/" ^ path, headers, body)

let request_print (meth, target, headers, body) =
  Printf.sprintf "%s %s [%s] %S" meth target
    (String.concat "; " (List.map (fun (k, v) -> k ^ ": " ^ v) headers))
    body

let round_trips (meth, target, headers, body) =
  let s = Http.render_request ~headers ~meth ~target body in
  match Http.parse_request s ~off:0 with
  | Http.Complete (req, used) ->
    used = String.length s
    && req.Http.meth = meth && req.Http.target = target
    && req.Http.body = body
    && List.filter (fun (k, _) -> k <> "content-length") req.Http.headers
       = headers
  | _ -> false

let round_trip_prop =
  QCheck2.Test.make ~name:"render_request |> parse_request is the identity"
    ~count:500 ~print:request_print request_gen round_trips

let trickle_prop =
  QCheck2.Test.make
    ~name:"rendered requests trickle: prefixes incomplete, whole completes"
    ~count:100 ~print:request_print request_gen
    (fun (meth, target, headers, body) ->
      let s = Http.render_request ~headers ~meth ~target body in
      trickle_is_incomplete s
      &&
      match Http.parse_request s ~off:0 with
      | Http.Complete (_, used) -> used = String.length s
      | _ -> false)

let pipeline_prop =
  QCheck2.Test.make
    ~name:"three rendered requests pipeline on one buffer" ~count:200
    ~print:(fun l -> String.concat " | " (List.map request_print l))
    QCheck2.Gen.(list_repeat 3 request_gen)
    (fun reqs ->
      let s =
        String.concat ""
          (List.map
             (fun (m, t, h, b) -> Http.render_request ~headers:h ~meth:m ~target:t b)
             reqs)
      in
      let rec go off = function
        | [] -> off = String.length s
        | (m, t, _, b) :: rest -> (
          match Http.parse_request s ~off with
          | Http.Complete (req, used) ->
            req.Http.meth = m && req.Http.target = t && req.Http.body = b
            && go (off + used) rest
          | _ -> false)
      in
      go 0 reqs)

(* ------------------------------------------------------------------ *)
(* Loopback: the wire through Olar_net.Client                         *)
(* ------------------------------------------------------------------ *)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let connect srv = ok "connect" (Client.connect ~url:(Server.url srv) ())
let disconnect = Client.close
let send_all conn s = ok "send" (Client.send conn s)
let recv_response conn = ok "receive" (Client.recv conn)

let request conn ~meth ~target body =
  ok (meth ^ " " ^ target) (Client.exchange conn ~meth ~body target)

let post_query conn body = request conn ~meth:"POST" ~target:"/query" body

let json_field resp name =
  match Jsonx.of_string resp.Http.resp_body with
  | Error e -> Alcotest.failf "unparsable JSON body %S: %s" resp.Http.resp_body e
  | Ok json -> Jsonx.member name json

let json_str resp name =
  match Option.bind (json_field resp name) Jsonx.to_str with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S" name

let json_int resp name =
  match Option.bind (json_field resp name) Jsonx.number with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "response lacks numeric field %S" name

(* The value of a counter/gauge line in a Prometheus scrape. *)
let metric_value body name =
  let lines = String.split_on_char '\n' body in
  let prefix = name ^ " " in
  match
    List.find_opt
      (fun l ->
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  with
  | None -> Alcotest.failf "metric %s not in scrape" name
  | Some l ->
    float_of_string
      (String.sub l (String.length prefix) (String.length l - String.length prefix))

let table2_engine () = Engine.of_lattice (Helpers.table2_lattice ())

let default_cfg = Server.default_config

(* ------------------------------------------------------------------ *)
(* Loopback: wire differential vs a serial session                    *)
(* ------------------------------------------------------------------ *)

(* The metrics-style canned workload as wire bodies: every query
   family, an epoch-bumping append, then the queries again. Table 2:
   4 items, db_size 1000, threshold count 3 (minsup 0.003). *)
let canned_workload =
  [
    {|{"kind":"count","minsup":0.003}|};
    {|{"kind":"find","minsup":0.003}|};
    {|{"kind":"find","minsup":0.01}|};
    {|{"kind":"find","containing":[0],"minsup":0.003}|};
    {|{"kind":"essential_rules","minsup":0.003,"minconf":0.3}|};
    {|{"kind":"all_rules","minsup":0.003,"minconf":0.3}|};
    {|{"kind":"single_consequent_rules","minsup":0.003,"minconf":0.3}|};
    {|{"kind":"support_for_k_itemsets","k":3}|};
    {|{"kind":"support_for_k_rules","minconf":0.3,"k":4}|};
    {|{"kind":"boundary","containing":[0,1,2],"minconf":0.3}|};
    {|{"kind":"append","delta":[[0,1,2],[1,2],[1,3],[2]],"num_items":4}|};
    {|{"kind":"count","minsup":0.003}|};
    {|{"kind":"find","minsup":0.003}|};
    {|{"kind":"essential_rules","minsup":0.003,"minconf":0.3}|};
    {|{"kind":"boundary","containing":[0,1,2],"minconf":0.3}|};
  ]

(* Drive the canned workload through a real socket, then replay the
   captured (key, digest) pairs through a serial Session on an
   identical engine: zero digest mismatches means wire answers are
   bitwise the serial answers — the pool-vs-serial oracle of
   test_serve.ml extended across HTTP. *)
let test_wire_differential () =
  let served =
    Server.with_server
      ~config:{ default_cfg with Server.port = 0 }
      ~domains:3
      ~budget_bytes:(1 lsl 20)
      (table2_engine ())
      (fun srv ->
        let conn = connect srv in
        let out =
          List.map
            (fun key ->
              let resp = post_query conn key in
              check Alcotest.int ("status of " ^ key) 200 resp.Http.status;
              check Alcotest.string "reports ok" "ok" (json_str resp "status");
              (key, json_str resp "digest", json_int resp "size"))
            canned_workload
        in
        disconnect conn;
        out)
  in
  let records =
    List.mapi
      (fun i (key, digest_hex, size) ->
        let base =
          match Record.key_of_json_line key with
          | Ok r -> r
          | Error e -> Alcotest.failf "bad canned key %s: %s" key e
        in
        let digest =
          match Fnv.of_hex digest_hex with
          | Some d -> d
          | None -> Alcotest.failf "bad digest hex %S" digest_hex
        in
        { base with Record.seq = i; digest; result_size = size })
      served
  in
  let serial = Session.create ~budget_bytes:0 (table2_engine ()) in
  let report =
    Replay.run
      ~on_outcome:(fun o ->
        if not o.Replay.ok then
          Alcotest.failf "wire digest diverges from serial at seq %d (%s)"
            o.Replay.record.Record.seq
            (Record.kind_to_string o.Replay.record.Record.kind))
      serial records
  in
  check Alcotest.int "replayed everything" (List.length canned_workload)
    report.Replay.total;
  check Alcotest.int "zero mismatches" 0 report.Replay.mismatches;
  check Alcotest.int "zero errors" 0 report.Replay.errors

(* A failing query's 422 body carries exactly the serial error text, so
   even errors stay comparable across the wire. *)
let test_wire_error_matches_serial () =
  Server.with_server
    ~config:{ default_cfg with Server.port = 0 }
    (table2_engine ())
    (fun srv ->
      let conn = connect srv in
      let resp = post_query conn {|{"kind":"count","minsup":0.0001}|} in
      check Alcotest.int "below-threshold is 422" 422 resp.Http.status;
      let serial = Session.create ~budget_bytes:0 (table2_engine ()) in
      let expected =
        try
          ignore (Session.count_itemsets serial ~minsup:0.0001);
          Alcotest.fail "serial session unexpectedly succeeded"
        with e -> Printexc.to_string e
      in
      check Alcotest.string "error text equals the serial exception"
        expected (json_str resp "error");
      disconnect conn)

let test_wire_pipelining () =
  Server.with_server
    ~config:{ default_cfg with Server.port = 0 }
    (table2_engine ())
    (fun srv ->
      let conn = connect srv in
      let body = {|{"kind":"count","minsup":0.003}|} in
      let one = Http.render_request ~meth:"POST" ~target:"/query" body in
      (* both requests in a single write: the server must answer both,
         in order, on the same connection *)
      send_all conn (one ^ one);
      let r1 = recv_response conn and r2 = recv_response conn in
      check Alcotest.int "first 200" 200 r1.Http.status;
      check Alcotest.int "second 200" 200 r2.Http.status;
      check Alcotest.string "identical answers" (json_str r1 "digest")
        (json_str r2 "digest");
      check Alcotest.int "table 2 has 9 itemsets" 9 (json_int r1 "count");
      disconnect conn)

let test_wire_errors_and_endpoints () =
  Server.with_server
    ~config:{ default_cfg with Server.port = 0 }
    (table2_engine ())
    (fun srv ->
      let conn = connect srv in
      let h = request conn ~meth:"GET" ~target:"/healthz" "" in
      check Alcotest.int "healthz" 200 h.Http.status;
      check Alcotest.string "healthz verdict" "ok" (json_str h "state");
      (match json_field h "reasons" with
      | Some (Jsonx.Arr []) -> ()
      | _ -> Alcotest.fail "a healthy verdict must carry no reasons");
      let nf = request conn ~meth:"GET" ~target:"/nope" "" in
      check Alcotest.int "unknown endpoint is 404" 404 nf.Http.status;
      let mna = request conn ~meth:"PUT" ~target:"/query" "{}" in
      check Alcotest.int "unknown method is 405" 405 mna.Http.status;
      let bad = post_query conn "this is not json" in
      check Alcotest.int "unparsable key is 400" 400 bad.Http.status;
      let incomplete = post_query conn {|{"kind":"find"}|} in
      check Alcotest.int "key without minsup is 400" 400 incomplete.Http.status;
      let m = request conn ~meth:"GET" ~target:"/metrics" "" in
      check Alcotest.int "metrics scrape" 200 m.Http.status;
      check Alcotest.bool "scrape carries the request counter" true
        (metric_value m.Http.resp_body "olar_http_requests_total" > 0.0);
      disconnect conn;
      (* a malformed request closes the connection after the 400 *)
      let conn = connect srv in
      send_all conn "BLAH\r\n\r\n";
      let resp = recv_response conn in
      check Alcotest.int "malformed HTTP is 400" 400 resp.Http.status;
      let eof =
        match Client.recv conn with
        | Error "connection closed before response headers" -> true
        | Error e -> e = Unix.error_message Unix.ECONNRESET
        | Ok _ -> false
      in
      check Alcotest.bool "connection closed after 400" true eof;
      disconnect conn)

(* ------------------------------------------------------------------ *)
(* Loopback: overload and deadlines                                   *)
(* ------------------------------------------------------------------ *)

(* Flood a queue_depth=1 server from several closed-loop clients:
   every response must be a correct 200 or a 429 shed (nothing hangs,
   nothing is wrong), the shed counter in /metrics must agree with
   what the clients saw, and the peak queue depth must never exceed
   the bound — that is the bounded-memory claim, observable. *)
let test_overload_sheds_with_429 () =
  let clients = 6 and per_client = 40 in
  Server.with_server
    ~config:{ default_cfg with Server.port = 0; queue_depth = 1 }
    ~domains:2
    (table2_engine ())
    (fun srv ->
      let probe = connect srv in
      let expected_digest =
        let r = post_query probe {|{"kind":"count","minsup":0.003}|} in
        check Alcotest.int "probe succeeds" 200 r.Http.status;
        json_str r "digest"
      in
      disconnect probe;
      let ok = Atomic.make 0 and shed = Atomic.make 0 in
      let failures = Atomic.make 0 in
      let worker () =
        let conn = connect srv in
        for _ = 1 to per_client do
          let r = post_query conn {|{"kind":"count","minsup":0.003}|} in
          match r.Http.status with
          | 200 ->
            if json_str r "digest" = expected_digest then Atomic.incr ok
            else Atomic.incr failures
          | 429 -> Atomic.incr shed
          | _ -> Atomic.incr failures
        done;
        disconnect conn
      in
      let threads = List.init clients (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      check Alcotest.int "no wrong or unexpected responses" 0
        (Atomic.get failures);
      check Alcotest.int "every request got an answer"
        (clients * per_client)
        (Atomic.get ok + Atomic.get shed);
      check Alcotest.bool "the flood produced 429 sheds" true
        (Atomic.get shed > 0);
      check Alcotest.bool "some requests were served" true (Atomic.get ok > 0);
      let conn = connect srv in
      let m = request conn ~meth:"GET" ~target:"/metrics" "" in
      disconnect conn;
      let scraped_shed =
        metric_value m.Http.resp_body "olar_http_shed_queue_total"
      in
      check (Alcotest.float 0.0) "shed counter agrees with the clients"
        (float_of_int (Atomic.get shed))
        scraped_shed;
      check Alcotest.bool "queue never grew past its bound" true
        (metric_value m.Http.resp_body "olar_http_queue_depth_peak" <= 1.0))

(* ------------------------------------------------------------------ *)
(* HEAD, phase attribution, /statusz, trace sampling                  *)
(* ------------------------------------------------------------------ *)

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* A HEAD answer must advertise the GET body's Content-Length while
   sending no body bytes. The proof is a pipelined GET right behind it:
   its status line must parse immediately after HEAD's blank line — any
   stray body byte would derail the parse. *)
let test_head_requests () =
  Server.with_server
    ~config:{ default_cfg with Server.port = 0 }
    (table2_engine ())
    (fun srv ->
      (* a raw socket: the subject is the bytes, which a client that
         parses responses would hide *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      List.iter
        (fun target ->
          Client.write_all fd
            (Http.render_request ~meth:"HEAD" ~target ""
            ^ Http.render_request ~meth:"GET" ~target:"/healthz" "");
          let chunk = Bytes.create 4096 in
          let b = Buffer.create 1024 in
          let rec fill () =
            let s = Buffer.contents b in
            (* the healthz GET body is one flat JSON object + newline *)
            if count_substring s "\r\n\r\n" >= 2 && String.length s >= 2
               && String.sub s (String.length s - 2) 2 = "}\n"
            then s
            else
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> Alcotest.failf "server closed during HEAD %s" target
              | n ->
                Buffer.add_subbytes b chunk 0 n;
                fill ()
          in
          let s = fill () in
          let head_end =
            match find_substring s "\r\n\r\n" with
            | Some i -> i + 4
            | None -> Alcotest.fail "no header terminator"
          in
          let head = String.sub s 0 head_end in
          check Alcotest.bool (target ^ " HEAD answers 200") true
            (String.length head >= 12 && String.sub head 0 12 = "HTTP/1.1 200");
          let cl =
            match find_substring head "Content-Length: " with
            | None -> Alcotest.fail "HEAD answer lacks Content-Length"
            | Some i ->
              let stop = String.index_from head i '\r' in
              int_of_string
                (String.sub head (i + 16) (stop - i - 16))
          in
          check Alcotest.bool (target ^ " Content-Length reflects the GET body")
            true (cl > 0);
          match Http.parse_response s ~off:head_end with
          | Http.Complete (g, used) ->
            check Alcotest.int (target ^ ": GET parses right after HEAD") 200
              g.Http.status;
            (match Jsonx.of_string g.Http.resp_body with
            | Ok j ->
              check
                (Alcotest.option Alcotest.string)
                "GET body intact" (Some "ok")
                (Option.bind (Jsonx.member "state" j) Jsonx.to_str)
            | Error e -> Alcotest.failf "GET body unparsable: %s" e);
            check Alcotest.int "stream fully consumed" (String.length s)
              (head_end + used)
          | _ -> Alcotest.failf "GET did not parse after HEAD %s" target)
        [ "/healthz"; "/metrics"; "/statusz" ];
      Unix.close fd)

let json_float resp name =
  match Option.bind (json_field resp name) Jsonx.number with
  | Some f -> f
  | None -> Alcotest.failf "response lacks numeric field %S" name

(* Phase attribution over the wire: every served query answers with a
   fresh id and a total_s; the six phase histograms (read back through
   /statusz) must account for the same requests, and their summed time
   must cover the responses' total_s with only the write phases on top. *)
let test_phase_attribution_and_statusz () =
  Server.with_server
    ~config:{ default_cfg with Server.port = 0; slow_s = 0.0 }
    ~domains:2
    (table2_engine ())
    (fun srv ->
      let conn = connect srv in
      let n = 6 in
      let ids = ref [] and totals = ref 0.0 in
      for _ = 1 to n do
        let r = post_query conn {|{"kind":"count","minsup":0.003}|} in
        check Alcotest.int "query ok" 200 r.Http.status;
        ids := json_int r "id" :: !ids;
        let total = json_float r "total_s" in
        check Alcotest.bool "total_s non-negative" true (total >= 0.0);
        check Alcotest.bool "total_s covers lat_s" true
          (total +. 1e-9 >= json_float r "lat_s");
        totals := !totals +. total
      done;
      check Alcotest.int "request ids are distinct" n
        (List.length (List.sort_uniq compare !ids));
      check Alcotest.bool "ids increase in request order" true
        (List.rev !ids = List.sort compare !ids);
      let sz = request conn ~meth:"GET" ~target:"/statusz" "" in
      check Alcotest.int "statusz" 200 sz.Http.status;
      let json =
        match Jsonx.of_string sz.Http.resp_body with
        | Ok j -> j
        | Error e -> Alcotest.failf "statusz not JSON: %s" e
      in
      let num path =
        match Option.bind (Jsonx.path path json) Jsonx.number with
        | Some f -> f
        | None ->
          Alcotest.failf "statusz lacks %s" (String.concat "/" path)
      in
      check Alcotest.bool "uptime positive" true (num [ "uptime_s" ] > 0.0);
      check (Alcotest.float 1e-9) "pool width" 2.0 (num [ "domains" ]);
      check (Alcotest.float 1e-9) "queries counted" (float_of_int n)
        (num [ "counters"; "queries" ]);
      (* all six phases account for exactly the n served queries *)
      let phase_sum = ref 0.0 in
      List.iter
        (fun phase ->
          check (Alcotest.float 1e-9)
            (phase ^ " phase counted every query")
            (float_of_int n)
            (num [ "phases"; phase; "count" ]);
          let s = num [ "phases"; phase; "sum_s" ] in
          check Alcotest.bool (phase ^ " sum non-negative") true (s >= 0.0);
          phase_sum := !phase_sum +. s)
        [ "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" ];
      (* the six phases cover the reported totals, plus only the write
         phases (absent from total_s) and float noise on top *)
      let slack = !phase_sum -. !totals in
      check Alcotest.bool "phase sums cover response totals" true
        (slack >= -1e-6 && slack <= 0.25);
      (* per-domain stats: requests sum to n, busy time is sane *)
      let pool_reqs =
        match Jsonx.(Option.bind (member "pool" json) to_list) with
        | Some doms ->
          List.fold_left
            (fun acc d ->
              (match Jsonx.(Option.bind (member "busy_s" d) number) with
              | Some b -> check Alcotest.bool "busy_s sane" true (b >= 0.0)
              | None -> Alcotest.fail "pool entry lacks busy_s");
              match Jsonx.(Option.bind (member "requests" d) number) with
              | Some r -> acc + int_of_float r
              | None -> Alcotest.fail "pool entry lacks requests")
            0 doms
        | None -> Alcotest.fail "statusz lacks pool array"
      in
      check Alcotest.int "domain request counts sum to n" n pool_reqs;
      (* slow_s = 0.0 logs everything: the ring has all n, newest first *)
      check (Alcotest.float 1e-9) "threshold echoed" 0.0
        (num [ "slow"; "threshold_ms" ]);
      check (Alcotest.float 1e-9) "every request in the slow ring"
        (float_of_int n)
        (num [ "slow"; "seen" ]);
      (match Jsonx.(Option.bind (path [ "slow"; "entries" ] json) to_list) with
      | Some entries ->
        check Alcotest.int "ring snapshot complete" n (List.length entries);
        let newest = List.hd entries in
        check
          (Alcotest.option Alcotest.string)
          "newest entry is the last query" (Some "count")
          Jsonx.(Option.bind (member "kind" newest) to_str);
        check
          (Alcotest.option (Alcotest.float 1e-9))
          "newest entry id" (Some (float_of_int (List.hd !ids)))
          Jsonx.(Option.bind (member "id" newest) number);
        List.iter
          (fun e ->
            (match Jsonx.(Option.bind (member "status" e) number) with
            | Some 200.0 -> ()
            | _ -> Alcotest.fail "slow entry status wrong");
            match Jsonx.(Option.bind (member "domain" e) number) with
            | Some d -> check Alcotest.bool "executing domain recorded" true (d >= 0.0)
            | None -> Alcotest.fail "slow entry lacks domain")
          entries
      | None -> Alcotest.fail "statusz lacks slow entries");
      disconnect conn)

(* With trace_sample = 1 every request emits an http.request root with
   six phase children into the engine's sink; the sharded buffers merge
   on server stop. *)
let test_trace_sampling () =
  let module Trace = Olar_obs.Trace in
  let sink, spans = Olar_obs.Sink.memory () in
  let engine =
    Engine.of_lattice
      ~obs:(Olar_obs.Obs.create ~trace:sink ())
      (Helpers.table2_lattice ())
  in
  let n = 5 in
  Server.with_server
    ~config:{ default_cfg with Server.port = 0; trace_sample = 1 }
    ~domains:2 engine
    (fun srv ->
      let conn = connect srv in
      for _ = 1 to n do
        let r = post_query conn {|{"kind":"count","minsup":0.003}|} in
        check Alcotest.int "traced query ok" 200 r.Http.status
      done;
      disconnect conn);
  (* with_server stopped the server, which flushed the sharded tracer *)
  let emitted = spans () in
  let roots = List.filter (fun s -> s.Trace.name = "http.request") emitted in
  check Alcotest.int "one root per sampled request" n (List.length roots);
  let index_of sp =
    let rec go i = function
      | [] -> Alcotest.fail "span vanished"
      | s :: _ when s == sp -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 emitted
  in
  List.iter
    (fun root ->
      check Alcotest.bool "root carries the request id" true
        (List.mem_assoc "request" root.Trace.attrs);
      let children =
        List.filter (fun s -> s.Trace.parent = Some root.Trace.id) emitted
      in
      let names = List.map (fun c -> c.Trace.name) children in
      check
        (Alcotest.list Alcotest.string)
        "six phase children in order"
        [
          "phase.parse"; "phase.queue"; "phase.dispatch"; "phase.execute";
          "phase.deliver"; "phase.write";
        ]
        names;
      List.iter
        (fun c ->
          check Alcotest.bool "child emitted before its root" true
            (index_of c < index_of root))
        children)
    roots

(* With a (practically) zero deadline, queued queries are dropped by
   the drainer with 503 before any pool work is spent on them. *)
let test_deadline_sheds_with_503 () =
  Server.with_server
    ~config:{ default_cfg with Server.port = 0; deadline_s = 1e-7 }
    (table2_engine ())
    (fun srv ->
      let conn = connect srv in
      let n = 10 in
      let sheds = ref 0 in
      for _ = 1 to n do
        let r = post_query conn {|{"kind":"count","minsup":0.003}|} in
        match r.Http.status with
        | 503 -> incr sheds
        | 200 -> ()
        | s -> Alcotest.failf "unexpected status %d under deadline" s
      done;
      check Alcotest.bool "deadline produced 503 drops" true (!sheds > 0);
      let m = request conn ~meth:"GET" ~target:"/metrics" "" in
      check (Alcotest.float 0.0) "deadline shed counter agrees"
        (float_of_int !sheds)
        (metric_value m.Http.resp_body "olar_http_shed_deadline_total");
      disconnect conn)

(* ------------------------------------------------------------------ *)
(* Health grading and the status client                                *)
(* ------------------------------------------------------------------ *)

module Health = Olar_net.Health

let reading ?(window_s = 60.0) ?(executed = 1000) ?(shed = 0) ?(errors_5xx = 0)
    ?(exec_p99_s = nan) () =
  { Health.window_s; executed; shed; errors_5xx; exec_p99_s }

let state_of r = Health.evaluate Health.default_thresholds r

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The engine is pure and stateless, so the ok → degraded → unhealthy
   → recovered cycle is just four evaluations of four readings. *)
let test_health_transitions () =
  check Alcotest.string "baseline is ok" "ok"
    (Health.state_name (state_of (reading ())));
  check Alcotest.int "ok answers 200" 200
    (Health.status_code (state_of (reading ())));
  check Alcotest.int "ok gauge encoding" 0
    (Health.state_value (state_of (reading ())));
  (* 2% shed crosses the 1% soft limit but not the 25% hard one *)
  (match state_of (reading ~shed:20 ()) with
  | Health.Degraded [ r ] ->
    check Alcotest.bool "reason names the check" true (has_prefix "shed_rate" r)
  | s ->
    Alcotest.failf "2%% shed: expected degraded, got %s" (Health.state_name s));
  check Alcotest.int "degraded still answers 200" 200
    (Health.status_code (state_of (reading ~shed:20 ())));
  check Alcotest.int "degraded gauge encoding" 1
    (Health.state_value (state_of (reading ~shed:20 ())));
  (* 30% of arrivals shed crosses the hard limit: the instance asks to
     be pulled *)
  (match state_of (reading ~executed:700 ~shed:300 ()) with
  | Health.Unhealthy [ r ] ->
    check Alcotest.bool "unhealthy reason names the check" true
      (has_prefix "shed_rate" r)
  | s ->
    Alcotest.failf "30%% shed: expected unhealthy, got %s"
      (Health.state_name s));
  check Alcotest.int "unhealthy answers 503" 503
    (Health.status_code (state_of (reading ~executed:700 ~shed:300 ())));
  check Alcotest.int "unhealthy gauge encoding" 2
    (Health.state_value (state_of (reading ~executed:700 ~shed:300 ())));
  (* the next clean window grades ok again — history cannot pin the
     verdict *)
  check Alcotest.string "recovered" "ok"
    (Health.state_name (state_of (reading ())));
  (* a hard 5xx breach keeps the soft shed reason too, worst first *)
  match state_of (reading ~errors_5xx:300 ~shed:20 ()) with
  | Health.Unhealthy [ worst; soft ] ->
    check Alcotest.bool "hard 5xx breach listed first" true
      (has_prefix "5xx_rate" worst);
    check Alcotest.bool "soft shed reason kept" true (has_prefix "shed_rate" soft)
  | s ->
    Alcotest.failf "mixed breach: expected two unhealthy reasons, got %s"
      (Health.state_name s)

let test_health_min_events_floor () =
  (* 2 of 5 arrivals shed would be catastrophic at scale, but one cold
     or idle server with five requests cannot flip the fleet *)
  check Alcotest.string "tiny sample is never judged" "ok"
    (Health.state_name (state_of (reading ~executed:3 ~shed:2 ())));
  check Alcotest.string "zero arrivals is ok" "ok"
    (Health.state_name (state_of (reading ~executed:0 ())));
  (* the floor counts arrivals (executed + shed), not executed: 1
     executed + 19 shed = 20 arrivals, exactly at the floor, judged *)
  check Alcotest.string "at the floor the rates are judged" "unhealthy"
    (Health.state_name (state_of (reading ~executed:1 ~shed:19 ())))

(* The regression table for the full-shed grading bug: rates divide by
   executed + shed, so an outage where nothing executes is judged, and
   shed_rate is a true fraction (never past 100%). *)
let test_health_case_table () =
  let name r = Health.state_name (state_of r) in
  (* shed-only outage: zero executed queries still grades unhealthy —
     the old executed-based floor returned ok here *)
  check Alcotest.string "full-shed outage" "unhealthy"
    (name (reading ~executed:0 ~shed:50 ()));
  check Alcotest.int "full-shed outage answers 503" 503
    (Health.status_code (state_of (reading ~executed:0 ~shed:50 ())));
  check Alcotest.int "arrivals is executed + shed" 50
    (Health.arrivals (reading ~executed:0 ~shed:50 ()));
  (* mixed traffic: 30 shed of 40 arrivals = 75%, far past the hard
     25% limit even though the executed count alone (10) sits under
     the old floor *)
  check Alcotest.string "mostly-shed mix" "unhealthy"
    (name (reading ~executed:10 ~shed:30 ()));
  (* 1% shed of arrivals sits exactly at (not over) the soft limit *)
  check Alcotest.string "1% shed is not degraded" "ok"
    (name (reading ~executed:990 ~shed:10 ()));
  check Alcotest.string "2% shed is degraded" "degraded"
    (name (reading ~executed:980 ~shed:20 ()));
  (* sub-min-events: 19 arrivals, shed-only or executed-only, are
     never judged; the 20th arrival starts grading *)
  check Alcotest.string "19 shed-only arrivals not judged" "ok"
    (name (reading ~executed:0 ~shed:19 ()));
  check Alcotest.string "19 executed-only arrivals not judged" "ok"
    (name (reading ~executed:19 ()));
  check Alcotest.string "20 shed-only arrivals judged" "unhealthy"
    (name (reading ~executed:0 ~shed:20 ()));
  (* 5xx rate uses the same arrivals denominator *)
  check Alcotest.string "5xx over arrivals" "unhealthy"
    (name (reading ~executed:30 ~shed:10 ~errors_5xx:11 ()))

let test_health_slo_p99 () =
  let t = Health.with_slo_p99 Health.default_thresholds ~slo_s:0.1 in
  let eval p99 = Health.evaluate t (reading ~exec_p99_s:p99 ()) in
  check Alcotest.string "under the SLO" "ok" (Health.state_name (eval 0.05));
  (match eval 0.2 with
  | Health.Degraded [ r ] ->
    check Alcotest.bool "latency reason names the check" true
      (has_prefix "exec_p99" r)
  | s ->
    Alcotest.failf "2x the SLO: expected degraded, got %s"
      (Health.state_name s));
  check Alcotest.string "past 4x the SLO is unhealthy" "unhealthy"
    (Health.state_name (eval 0.5));
  (* nan p99 (no execute sample in the window) trips nothing *)
  check Alcotest.string "empty-window p99 is ok" "ok"
    (Health.state_name (Health.evaluate t (reading ())));
  (* the latency check is off by default: infinity limits never trip *)
  check Alcotest.string "p99 disabled by default" "ok"
    (Health.state_name (state_of (reading ~exec_p99_s:99.0 ())));
  check Alcotest.bool "non-positive slo leaves thresholds unchanged" true
    (Health.with_slo_p99 Health.default_thresholds ~slo_s:0.0
    = Health.default_thresholds)

let test_client_parse_url () =
  let ok url expect =
    match Client.parse_url url with
    | Ok got ->
      check
        (Alcotest.triple Alcotest.string Alcotest.int Alcotest.string)
        url expect got
    | Error e -> Alcotest.failf "%s unexpectedly rejected: %s" url e
  in
  ok "http://localhost:7447" ("localhost", 7447, "/");
  ok "http://10.0.0.1:80/statusz" ("10.0.0.1", 80, "/statusz");
  ok "localhost:7447/metrics" ("localhost", 7447, "/metrics");
  ok "http://example.org/healthz" ("example.org", 80, "/healthz");
  match Client.parse_url "http://bad:port" with
  | Ok _ -> Alcotest.fail "non-numeric port accepted"
  | Error _ -> ()

(* The client against a live server: /healthz grades ok over the wire,
   and the /statusz document carries the window, gc and health
   sections olar top renders. *)
let test_client_and_health_over_the_wire () =
  Server.with_server
    ~config:{ default_cfg with Server.port = 0 }
    (table2_engine ())
    (fun srv ->
      let url = Server.url srv in
      (match Client.get ~url "/healthz" with
      | Error e -> Alcotest.failf "healthz GET failed: %s" e
      | Ok (status, body) ->
        check Alcotest.int "healthz over the client" 200 status;
        (match Jsonx.of_string body with
        | Ok j ->
          check
            (Alcotest.option Alcotest.string)
            "fresh server grades ok" (Some "ok")
            (Option.bind (Jsonx.member "state" j) Jsonx.to_str)
        | Error e -> Alcotest.failf "healthz body unparsable: %s" e));
      (match Client.get ~url "/statusz" with
      | Error e -> Alcotest.failf "statusz GET failed: %s" e
      | Ok (status, body) -> (
        check Alcotest.int "statusz over the client" 200 status;
        match Jsonx.of_string body with
        | Error e -> Alcotest.failf "statusz body unparsable: %s" e
        | Ok j ->
          List.iter
            (fun section ->
              if Jsonx.member section j = None then
                Alcotest.failf "statusz lacks the %S section" section)
            [ "window"; "gc"; "health" ];
          check
            (Alcotest.option Alcotest.string)
            "health section mirrors /healthz" (Some "ok")
            (Option.bind (Jsonx.path [ "health"; "state" ] j) Jsonx.to_str)));
      match Client.get ~url "/nope" with
      | Ok (status, _) -> check Alcotest.int "404 passes through" 404 status
      | Error e -> Alcotest.failf "unexpected client error: %s" e)

(* ------------------------------------------------------------------ *)
(* Client robustness: truncation, short writes, send timeouts         *)
(* ------------------------------------------------------------------ *)

(* A one-shot fake HTTP server: accept one connection, read until the
   request's blank line, write [response] verbatim, close. Lets the
   tests hand the real client a wire-level misbehaviour no correct
   server produces. *)
let with_fake_server response f =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let th =
    Thread.create
      (fun () ->
        let c, _ = Unix.accept srv in
        let buf = Bytes.create 4096 in
        let seen = Buffer.create 256 in
        let have_blank_line () =
          let s = Buffer.contents seen in
          let n = String.length s in
          let rec go i =
            i + 3 < n
            && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
                 && s.[i + 3] = '\n')
               || go (i + 1))
          in
          go 0
        in
        let rec drain_request () =
          if not (have_blank_line ()) then
            match Unix.read c buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes seen buf 0 n;
              drain_request ()
        in
        drain_request ();
        let b = Bytes.of_string response in
        let rec send off =
          if off < Bytes.length b then
            send (off + Unix.write c b off (Bytes.length b - off))
        in
        send 0;
        Unix.close c)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join th;
      Unix.close srv)
    (fun () -> f (Printf.sprintf "http://127.0.0.1:%d" port))

(* The peer promises more body bytes than it delivers and half-closes:
   the client must answer Error, not a silently short Ok body the
   caller would misparse downstream. A Content-Length far beyond
   memory is the same error: the client allocates as bytes arrive. *)
let test_client_truncated_body () =
  List.iter
    (fun promised ->
      let response =
        Printf.sprintf "HTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n0123456789"
          promised
      in
      with_fake_server response (fun url ->
          match Client.get ~url "/statusz" with
          | Ok (status, body) ->
            Alcotest.failf "truncated body accepted: %d %S" status body
          | Error e ->
            check Alcotest.string "truncation is named precisely"
              (Printf.sprintf "truncated body (got 10 of %d bytes)" promised)
              e))
    [ 100; 1_000_000_000_000_000 ]

(* An intact short body with a matching Content-Length still parses. *)
let test_client_exact_body_still_ok () =
  let response = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok" in
  with_fake_server response (fun url ->
      match Client.get ~url "/healthz" with
      | Ok (200, body) -> check Alcotest.string "body intact" "ok" body
      | Ok (s, _) -> Alcotest.failf "unexpected status %d" s
      | Error e -> Alcotest.failf "exact body rejected: %s" e)

(* No Content-Length: the same rule as [Http.parse_response] — an
   empty body — not a read to EOF. *)
let test_client_no_content_length () =
  let response = "HTTP/1.1 200 OK\r\nx-a: 1\r\n\r\nnot a body" in
  with_fake_server response (fun url ->
      match Client.get ~url "/healthz" with
      | Ok (status, body) ->
        check Alcotest.int "status" 200 status;
        check Alcotest.string "empty body" "" body
      | Error e -> Alcotest.failf "response rejected: %s" e)

(* One keep-alive connection runs several exchanges. One answer (every
   itemset at the primary threshold) is large enough to arrive over
   many reads, and a count follows it on the same connection, so no
   byte may be lost or left behind between answers. Each digest equals
   serial [Pool.exec] on the same engine. *)
let test_client_keep_alive_exchanges () =
  let params =
    Olar_datagen.Params.make
      ~over:
        {
          Olar_datagen.Params.default with
          num_items = 200;
          num_potential = 300;
          seed = 23;
        }
      ~avg_transaction_size:10.0 ~avg_itemset_size:4.0 ~num_transactions:2000
      ()
  in
  let engine =
    Engine.at_threshold (Olar_datagen.Quest.generate params)
      ~primary_support:0.005
  in
  let bodies =
    [
      {|{"kind":"count","minsup":0.005}|};
      {|{"kind":"find","minsup":0.005}|};
      {|{"kind":"count","minsup":0.01}|};
      {|{"kind":"support_for_k_itemsets","k":50}|};
      {|{"kind":"find","minsup":0.005}|};
      {|{"kind":"essential_rules","minsup":0.01,"minconf":0.5}|};
    ]
  in
  let answers =
    Server.with_server
      ~config:{ default_cfg with Server.port = 0 }
      ~domains:2 engine
      (fun srv ->
        let conn = connect srv in
        let answers =
          List.map
            (fun body ->
              let r = post_query conn body in
              check Alcotest.int ("status of " ^ body) 200 r.Http.status;
              (body, json_str r "digest", String.length r.Http.resp_body))
            bodies
        in
        disconnect conn;
        answers)
  in
  let largest = List.fold_left (fun m (_, _, n) -> max m n) 0 answers in
  check Alcotest.bool
    (Printf.sprintf "one answer spans many reads (%d bytes)" largest)
    true (largest > 256 * 1024);
  let session = Session.create ~budget_bytes:0 engine in
  List.iter
    (fun (body, digest, _) ->
      let req =
        match Result.bind (Record.key_of_json_line body) Replay.request_of_record with
        | Ok req -> req
        | Error e -> Alcotest.failf "bad key %s: %s" body e
      in
      let serial =
        match Replay.digest_response (Olar_serve.Pool.exec session req) with
        | Some d -> Fnv.to_hex d
        | None -> Alcotest.failf "serial execution of %s failed" body
      in
      check Alcotest.string ("digest of " ^ body) serial digest)
    answers

(* Push a payload much larger than a deliberately tiny send buffer
   through [write_all] while the peer drains slowly: every short write
   must be resumed until the last byte arrives intact. *)
let test_client_short_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with _ -> ());
  let payload =
    String.init 1_000_000 (fun i -> Char.chr (((i * 131) + (i / 997)) land 0xff))
  in
  let received = Buffer.create (String.length payload) in
  let reader =
    Thread.create
      (fun () ->
        let chunk = Bytes.create 799 in
        let rec go () =
          match Unix.read b chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes received chunk 0 n;
            (* drain slower than the writer can fill the tiny buffer *)
            if Buffer.length received land 0xfff = 0 then Thread.yield ();
            go ()
        in
        go ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      Client.write_all a payload;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Thread.join reader;
      check Alcotest.int "every byte arrived" (String.length payload)
        (Buffer.length received);
      check Alcotest.bool "bytes arrived in order, uncorrupted" true
        (String.equal payload (Buffer.contents received)))

(* Nobody reads the peer and the send buffer is tiny: once SO_SNDTIMEO
   expires the blocked send surfaces as the stable "send timeout"
   failure, not a raw EAGAIN message. *)
let test_client_send_timeout () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with _ -> ());
  Unix.setsockopt_float a Unix.SO_SNDTIMEO 0.1;
  let payload = String.make 4_000_000 'x' in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      match Client.write_all a payload with
      | () -> Alcotest.fail "blocked send returned without timing out"
      | exception Failure e -> check Alcotest.string "stable error" "send timeout" e)

(* ------------------------------------------------------------------ *)
(* Loopback: full-shed outage grades unhealthy                        *)
(* ------------------------------------------------------------------ *)

(* The /healthz regression for the shed-grading fix: a server whose
   every query sheds (queue_depth 1 plus an immediately-expiring
   deadline, so zero queries execute) must grade unhealthy — under the
   old executed-only reading the min_events floor never tripped and
   the outage graded ok. *)
let test_full_shed_flood_grades_unhealthy () =
  Server.with_server
    ~config:
      { default_cfg with Server.port = 0; queue_depth = 1; deadline_s = 1e-9 }
    ~domains:2
    (table2_engine ())
    (fun srv ->
      let url = Server.url srv in
      let sheds = ref 0 in
      for i = 0 to 39 do
        match Client.post ~url "/query" {|{"kind":"count","minsup":0.003}|} with
        | Ok (503, _) -> incr sheds
        | Ok (429, _) -> () (* queue-full shed also counts toward rates *)
        | Ok (s, b) -> Alcotest.failf "flood %d: unexpected %d %s" i s b
        | Error e -> Alcotest.failf "flood %d failed: %s" i e
      done;
      check Alcotest.bool "everything shed" true (!sheds > 0);
      match Client.get ~url "/healthz" with
      | Error e -> Alcotest.failf "healthz GET failed: %s" e
      | Ok (status, body) -> (
        check Alcotest.int "full-shed outage answers 503" 503 status;
        match Jsonx.of_string body with
        | Error e -> Alcotest.failf "healthz body unparsable: %s" e
        | Ok j ->
          check
            (Alcotest.option Alcotest.string)
            "full-shed outage grades unhealthy" (Some "unhealthy")
            (Option.bind (Jsonx.member "state" j) Jsonx.to_str);
          check
            (Alcotest.option (Alcotest.float 0.0))
            "zero executed queries in the window" (Some 0.0)
            (Option.bind (Jsonx.member "executed" j) Jsonx.number);
          check Alcotest.bool "the floor tripped on shed arrivals" true
            (match Option.bind (Jsonx.member "shed" j) Jsonx.number with
            | Some shed -> shed >= 20.0
            | None -> false)))

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "net.http",
      [
        case "simple request" test_simple_request;
        case "obs-fold header continuations" test_header_folding;
        case "missing content-length means empty body"
          test_missing_content_length_means_empty_body;
        case "content-length zero" test_content_length_zero;
        case "content-length exact" test_content_length_exact;
        case "content-length edge cases" test_content_length_edge_cases;
        case "unsupported features rejected" test_reject_unsupported;
        case "bare LF tolerated" test_bare_lf_tolerated;
        case "pipelined requests" test_pipelined_requests;
        case "byte-at-a-time trickle" test_trickled_bytes;
        case "response round trip" test_response_round_trip;
        case "response without content-length"
          test_response_without_content_length;
        case "response head parser and head_end"
          test_response_head_and_head_end;
      ] );
    Helpers.qsuite "net.http.props"
      [
        fuzz_prop;
        fuzz_headers_prop;
        round_trip_prop;
        trickle_prop;
        pipeline_prop;
      ];
    ( "net.server",
      [
        case "wire differential vs serial session" test_wire_differential;
        case "422 error text equals the serial exception"
          test_wire_error_matches_serial;
        case "pipelining over the wire" test_wire_pipelining;
        case "endpoints and protocol errors" test_wire_errors_and_endpoints;
        case "overload sheds with 429, bounded queue"
          test_overload_sheds_with_429;
        case "deadline sheds with 503" test_deadline_sheds_with_503;
        case "HEAD mirrors GET without a body" test_head_requests;
        case "phase attribution and statusz" test_phase_attribution_and_statusz;
        case "trace sampling emits request trees" test_trace_sampling;
      ] );
    ( "net.health",
      [
        case "ok/degraded/unhealthy/recovered transitions"
          test_health_transitions;
        case "min_events floor" test_health_min_events_floor;
        case "shed-only, mixed and sub-min-events readings"
          test_health_case_table;
        case "SLO p99 check" test_health_slo_p99;
        case "client URL parsing" test_client_parse_url;
        case "client and health over the wire"
          test_client_and_health_over_the_wire;
        case "full-shed flood grades unhealthy"
          test_full_shed_flood_grades_unhealthy;
      ] );
    ( "net.client",
      [
        case "truncated body is an error" test_client_truncated_body;
        case "exact content-length still parses"
          test_client_exact_body_still_ok;
        case "no content-length means an empty body"
          test_client_no_content_length;
        case "keep-alive exchanges match serial Pool.exec"
          test_client_keep_alive_exchanges;
        case "short writes resume through a tiny SO_SNDBUF"
          test_client_short_writes;
        case "blocked send times out with a stable error"
          test_client_send_timeout;
      ] );
  ]
