let parse_url url =
  let rest =
    match String.index_opt url ':' with
    | Some i
      when i + 2 < String.length url
           && url.[i + 1] = '/'
           && url.[i + 2] = '/' ->
      String.sub url (i + 3) (String.length url - i - 3)
    | _ -> url
  in
  if rest = "" then Error "empty url"
  else begin
    let hostport, path =
      match String.index_opt rest '/' with
      | Some i ->
        (String.sub rest 0 i, String.sub rest i (String.length rest - i))
      | None -> (rest, "/")
    in
    match String.index_opt hostport ':' with
    | None -> Ok (hostport, 80, path)
    | Some i -> (
      let host = String.sub hostport 0 i in
      let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p, path)
      | _ -> Error ("invalid host:port: " ^ hostport))
  end

(* A signal mid-send must not abort the request (EINTR: written = 0,
   retry), and a send that times out against a peer that stopped
   reading (SO_SNDTIMEO surfaces it as EAGAIN/EWOULDBLOCK) must come
   back as a message callers can match on — [exchange] turns the
   [Failure] into [Error "send timeout"]. *)
let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      let n =
        try Unix.write fd b off (len - off) with
        | Unix.Unix_error (Unix.EINTR, _, _) -> 0
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          failwith "send timeout"
      in
      go (off + n)
  in
  go 0

(* The read-side mirror: retry EINTR, name a receive timeout. *)
let rec read fd b off len =
  try Unix.read fd b off len with
  | Unix.Unix_error (Unix.EINTR, _, _) -> read fd b off len
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    failwith "receive timeout"

(* A connection and its receive buffer: bytes [pos, len) of [buf] have
   arrived but belong to responses not yet returned. *)
type conn = {
  fd : Unix.file_descr;
  host : string;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let of_fd ?(host = "") fd = { fd; host; buf = Bytes.create 8192; pos = 0; len = 0 }

(* Read more bytes after [len], first moving the unread ones to the
   front and growing the buffer if they fill it. 0 is EOF. *)
let fill c =
  if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0
  end;
  if c.len = Bytes.length c.buf then begin
    let bigger = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  let n = read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  c.len <- c.len + n;
  n

(* One response. The end of the head is searched for in newly read
   bytes only, the head is parsed once, and then exactly the
   Content-Length body bytes are read straight into the body, so a
   large answer costs no re-parse per read, and bytes of a following
   pipelined response stay in the buffer. There is no body cap: the
   body grows by doubling as bytes arrive, so a false Content-Length
   costs memory only for bytes actually sent. *)
let recv_exn c =
  let rec find_head from =
    match Http.head_end c.buf ~from ~len:c.len with
    | Some stop -> Ok stop
    | None when c.len - c.pos > Http.default_max_head ->
      Error "response head too large"
    | None ->
      let old = c.len - c.pos in
      if fill c = 0 then Error "connection closed before response headers"
      else find_head (max c.pos (c.pos + old - 2))
  in
  match find_head c.pos with
  | Error e -> Error e
  | Ok stop -> (
    let head = Bytes.sub_string c.buf c.pos (stop - c.pos) in
    c.pos <- stop;
    match Http.parse_response_head ~max_body:max_int head ~off:0 with
    | Http.Failed { reason; _ } -> Error reason
    | Http.Incomplete -> Error "malformed response head"
    | Http.Complete ((resp, n), _) ->
      let have = min n (c.len - c.pos) in
      let body = Bytes.create (min n (max have 65536)) in
      Bytes.blit c.buf c.pos body 0 have;
      c.pos <- c.pos + have;
      let rec go body got =
        if got = n then
          Ok { resp with Http.resp_body = Bytes.unsafe_to_string body }
        else
          let body =
            if got < Bytes.length body then body
            else Bytes.extend body 0 (min got (n - got))
          in
          match read c.fd body got (Bytes.length body - got) with
          | 0 ->
            (* a peer that closes before Content-Length bytes arrive
               has truncated the body — an error, never an Ok with a
               short body the caller would misparse downstream *)
            Error (Printf.sprintf "truncated body (got %d of %d bytes)" got n)
          | k -> go body (got + k)
      in
      go body have)

let status_body (r : Http.response) = (r.status, r.resp_body)
let read_response fd = Result.map status_body (recv_exn (of_fd fd))

(* Every exception a connection can meet becomes an [Error]. *)
let protect f =
  try f () with
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Failure e -> Error e

let resolve host =
  try Ok (Unix.inet_addr_of_string host)
  with _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> Ok a
    | _ -> Error ("cannot resolve host: " ^ host))

let connect ?(timeout_s = 5.0) ~url () =
  match parse_url url with
  | Error e -> Error e
  | Ok (host, port, _) -> (
    match resolve host with
    | Error e -> Error e
    | Ok addr ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      protect (fun () ->
          try
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
            Unix.connect fd (Unix.ADDR_INET (addr, port));
            (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
            Ok (of_fd ~host:(Printf.sprintf "%s:%d" host port) fd)
          with e ->
            (try Unix.close fd with _ -> ());
            raise e))

let send c bytes = protect (fun () -> Ok (write_all c.fd bytes))
let recv c = protect (fun () -> recv_exn c)

let exchange c ~meth ?(body = "") target =
  protect (fun () ->
      write_all c.fd
        (Http.render_request ~headers:[ ("host", c.host) ] ~meth ~target body);
      recv_exn c)

let close c = try Unix.close c.fd with _ -> ()

(* One exchange on a fresh connection. *)
let once ?timeout_s ~url ~meth ~body path =
  match connect ?timeout_s ~url () with
  | Error e -> Error e
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () -> Result.map status_body (exchange c ~meth ~body path))

let get ?timeout_s ~url path = once ?timeout_s ~url ~meth:"GET" ~body:"" path
let post ?timeout_s ~url path body = once ?timeout_s ~url ~meth:"POST" ~body path
