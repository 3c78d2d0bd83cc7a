(* The bench's side of the wire: `olar serve` as a child process, a
   persistent HTTP/1.1 connection per client, and /metrics and /proc
   readings of the server. *)

module Client = Olar_net.Client

let monotonic = Olar_util.Timer.monotonic_s

(* ------------------------------------------------------------------ *)
(* The server process                                                 *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  port : int;
  url : string;
}

let live = ref []

let stop server =
  if List.mem server.pid !live then begin
    live := List.filter (fun p -> p <> server.pid) !live;
    (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = monotonic () +. 20.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] server.pid with
      | 0, _ when monotonic () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()
  end

(* Whatever happens, no child outlives the bench. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let healthy url =
  match Client.get ~timeout_s:1.0 ~url "/healthz" with
  | Ok (200, _) -> true
  | _ -> false

(* [spawn] starts `olar serve` on an ephemeral port and returns once
   /healthz answers 200. The port is read back from the banner the
   server prints on its stdout, which goes to [log]. *)
let spawn ~olar ~lattice ~cache_mb ~log extra =
  let args =
    Array.of_list
      ([ olar; "serve"; "-l"; lattice; "--port"; "0"; "--cache-mb";
         string_of_int cache_mb ]
      @ extra)
  in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid = Unix.create_process olar args null out out in
  Unix.close out;
  Unix.close null;
  live := pid :: !live;
  let deadline = monotonic () +. 60.0 in
  let fail msg =
    stop { pid; port = 0; url = "" };
    failwith (Printf.sprintf "olar serve: %s (see %s)" msg log)
  in
  let banner = "serving on http://127.0.0.1:" in
  let rec port () =
    if monotonic () > deadline then fail "no banner"
    else if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
      live := List.filter (fun p -> p <> pid) !live;
      failwith ("olar serve exited early: " ^ read_file log)
    end
    else
      let text = read_file log in
      match String.index_opt text '\n' with
      | Some nl when String.starts_with ~prefix:banner text ->
        let rest = String.sub text (String.length banner) (nl - String.length banner) in
        let digits = String.sub rest 0 (String.index rest ' ') in
        int_of_string digits
      | _ ->
        Unix.sleepf 0.002;
        port ()
  in
  let port = port () in
  let url = Printf.sprintf "http://127.0.0.1:%d" port in
  let rec ready () =
    if healthy url then ()
    else if monotonic () > deadline then fail "/healthz never answered 200"
    else begin
      Unix.sleepf 0.002;
      ready ()
    end
  in
  ready ();
  { pid; port; url }

(* ------------------------------------------------------------------ *)
(* /proc readings                                                     *)
(* ------------------------------------------------------------------ *)

(* utime + stime of [pid] in seconds (Linux reports both in USER_HZ =
   100 ticks per second). *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let paren = String.rindex stat ')' in
  let after = String.sub stat (paren + 2) (String.length stat - paren - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  float (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.0

(* Peak resident set of [pid] in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  let kb =
    List.find_map int_of_string_opt
      (String.split_on_char ' ' (String.trim (String.sub line 6 (String.length line - 6))))
  in
  float (Option.get kb) /. 1024.0

(* ------------------------------------------------------------------ *)
(* /metrics                                                           *)
(* ------------------------------------------------------------------ *)

(* One scrape: every sample line as (series, value), where the series
   is the metric name with its label set, e.g.
   [olar_http_phase_seconds_sum{phase="parse"}]. *)
type scrape = (string * float) list

let scrape server : scrape =
  match Client.get ~timeout_s:10.0 ~url:server.url "/metrics" with
  | Ok (200, body) ->
    List.filter_map
      (fun line ->
        if line = "" || line.[0] = '#' then None
        else
          match String.rindex_opt line ' ' with
          | None -> None
          | Some i ->
            Option.map
              (fun v -> (String.sub line 0 i, v))
              (float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))))
      (String.split_on_char '\n' body)
  | Ok (status, _) -> failwith (Printf.sprintf "/metrics answered %d" status)
  | Error e -> failwith ("/metrics: " ^ e)

(* The sum over every series of metric [name] (all label sets), or
   just the series with label [label] when given. *)
let value ?label (s : scrape) name =
  List.fold_left
    (fun acc (series, v) ->
      let base, labels =
        match String.index_opt series '{' with
        | Some i -> (String.sub series 0 i, String.sub series i (String.length series - i))
        | None -> (series, "")
      in
      let matches =
        base = name
        && match label with None -> true | Some l -> labels = "{" ^ l ^ "}"
      in
      if matches then acc +. v else acc)
    0.0 s

let delta ?label ~before ~after name =
  value ?label after name -. value ?label before name

(* ------------------------------------------------------------------ *)
(* Persistent client connections                                      *)
(* ------------------------------------------------------------------ *)

let connect server =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 60.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, server.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* One closed-loop exchange: send, then block for the reply. *)
let roundtrip fd http =
  try
    Client.write_all fd http;
    Client.read_response fd
  with
  | Failure e -> Error e
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* The fields of a 200 /query body the bench reads. They precede the
   result payload, so a scan for the first occurrence finds them. *)
type reply = {
  rid : int;
  digest : string;
  size : int;
  lat_s : float;
  total_s : float;
}

let field body name =
  let pat = "\"" ^ name ^ "\":" in
  let plen = String.length pat and n = String.length body in
  let rec find i =
    if i + plen > n then None
    else if String.sub body i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      let stop = ref start in
      while !stop < n && body.[!stop] <> ',' && body.[!stop] <> '}' do
        incr stop
      done;
      String.sub body start (!stop - start))
    (find 0)

let parse_reply body =
  let ( let* ) = Option.bind in
  let* rid = Option.bind (field body "id") int_of_string_opt in
  let* digest = field body "digest" in
  let* size = Option.bind (field body "size") int_of_string_opt in
  let* lat_s = Option.bind (field body "lat_s") float_of_string_opt in
  let* total_s = Option.bind (field body "total_s") float_of_string_opt in
  let digest = String.sub digest 1 (max 0 (String.length digest - 2)) in
  Some { rid; digest; size; lat_s; total_s }
