(** Minimal blocking HTTP/1.1 client for olar's own endpoints — the one
    HTTP client in the repository.

    [olar top], the bench harness, the smoke benches and the loopback
    tests all reach a running daemon through it, without an external
    HTTP dependency. A {!conn} is a keep-alive connection that runs any
    number of request/response exchanges; {!get}/{!post} are one
    exchange over a fresh connection. Requests are rendered by
    {!Http.render_request} and responses parsed by {!Http}'s grammar
    ({!Http.parse_response_head}); the client scans no headers itself.
    Bodies are delimited by [Content-Length] only (which is all the
    server emits): a response without it has an empty body, as in
    {!Http.parse_response}. No TLS, no redirects, no body size cap. *)

(** [parse_url url] splits ["http://host:port/path"] into
    [(host, port, path)]. The scheme is optional; the port defaults to
    80; the path defaults to ["/"]. *)
val parse_url : string -> (string * int * string, string) result

(** {1 Keep-alive connections}

    Errors from {!connect}, {!exchange}, {!send} and {!recv} — refused
    connection, timeout, malformed or truncated response — come back as
    [Error message], never an exception. *)

(** A connection and the bytes received on it but not yet returned —
    the start of a pipelined response stays there for the next
    {!recv}. *)
type conn

(** [connect ~url ()] opens a connection to the host/port of [url] (any
    path inside [url] is ignored). [timeout_s] bounds connect, each
    send and each read for the connection's lifetime (default 5s). *)
val connect : ?timeout_s:float -> url:string -> unit -> (conn, string) result

(** [exchange c ~meth ?body target] sends one request and reads its
    response. *)
val exchange :
  conn -> meth:string -> ?body:string -> string -> (Http.response, string) result

(** [send c bytes] writes raw bytes — several rendered requests at once,
    or deliberately malformed ones. *)
val send : conn -> string -> (unit, string) result

(** [recv c] reads the next response. EOF before a response head is
    [Error "connection closed before response headers"]. *)
val recv : conn -> (Http.response, string) result

val close : conn -> unit

(** {1 One-shot requests} *)

(** [get ~url path] issues [GET path] against the host/port of [url]
    (any path inside [url] itself is ignored) on a fresh connection and
    returns [(status, body)]. [timeout_s] bounds connect and each read
    (default 5s). Errors come back as [Error message], never an
    exception. *)
val get : ?timeout_s:float -> url:string -> string -> (int * string, string) result

(** [post ~url path body] likewise, with a request body. *)
val post :
  ?timeout_s:float -> url:string -> string -> string -> (int * string, string) result

(** {1 Wire-level helpers}

    The send/receive halves of a connection on a bare socket, for
    callers that manage their own (perfbench's wire module, the loopback
    tests' raw sockets) and for the server's connection threads. *)

(** [write_all fd s] writes all of [s], looping over short writes and
    retrying [EINTR]. A send timeout ([SO_SNDTIMEO] expiring as
    [EAGAIN]/[EWOULDBLOCK]) raises [Failure "send timeout"] — which
    {!get}/{!post} surface as [Error "send timeout"]. *)
val write_all : Unix.file_descr -> string -> unit

(** [read fd b off len] is [Unix.read] retrying [EINTR]; a receive
    timeout raises [Failure "receive timeout"]. *)
val read : Unix.file_descr -> Bytes.t -> int -> int -> int

(** [read_response fd] reads one HTTP/1.1 response: the head, then
    [Content-Length] bytes of body. A peer that closes before
    [Content-Length] bytes arrive yields
    [Error "truncated body (got N of M bytes)"], never a silently
    short [Ok]. [EINTR] is retried; a receive timeout raises
    [Failure "receive timeout"]. Bytes read past this response are
    dropped, so use a {!conn} to pipeline. *)
val read_response : Unix.file_descr -> (int * string, string) result
