(** Hand-rolled HTTP/1.1 message parsing and serialization.

    The serving daemon ({!Server}) speaks plain HTTP/1.1 over Unix
    sockets with zero external dependencies, so the wire format lives
    here: an incremental request parser (the server side), a response
    serializer, and the mirror pair — request serializer and incremental
    response parser — used by {!Client}, the one HTTP client in the
    repository.

    {2 Parsing model}

    The parsers are {e pull} parsers over a caller-owned receive buffer:
    [parse_request buf ~off] inspects [buf] from byte [off] and either
    returns a complete message plus the number of bytes it consumed,
    asks for more input ([Incomplete]), or rejects the prefix
    ([Failed]). The caller appends whatever the socket delivers —
    one byte at a time is fine — and re-parses; after a [Complete] it
    advances [off] by the consumed count and parses again, which is all
    pipelining requires. Parsers {b never raise} on any input; malformed
    bytes always surface as [Failed] with a suggested status code.

    {2 Accepted grammar}

    Request-line [METHOD SP TARGET SP HTTP/1.x]; header lines terminated
    by CRLF (a bare LF is tolerated); obs-fold continuation lines
    (leading SP/HTAB) are unfolded into the previous header value with a
    single space, per RFC 7230 §3.2.4. Header names are lowercased.
    Bodies are delimited by [Content-Length] only — a missing
    [Content-Length] means an empty body, in requests and responses
    alike (a response is never read to EOF), conflicting duplicates are
    rejected, and values that are non-numeric, negative, overflowing, or
    larger than [max_body] are rejected before any body byte is
    buffered. [Transfer-Encoding] is not implemented and is rejected
    with 501. *)

type request = {
  meth : string;  (** verbatim, e.g. ["GET"] — method names are case-sensitive *)
  target : string;
  headers : (string * string) list;
      (** in arrival order; names lowercased, values trimmed of
          surrounding whitespace, folded continuations joined by [" "] *)
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;  (** names lowercased *)
  resp_body : string;
}

(** Parse failure: [status] is the HTTP status the server should answer
    with (400 malformed, 413 oversized body, 431 oversized header
    section, 501 transfer-encoding, 505 unknown version). *)
type error = { status : int; reason : string }

type 'a parse =
  | Complete of 'a * int  (** the message and the bytes consumed from [off] *)
  | Incomplete  (** a valid prefix; feed more bytes and re-parse *)
  | Failed of error

(** [parse_request buf ~off] parses one request starting at [off].
    @param max_head byte budget for request line + headers (default 16 KiB)
    @param max_body largest accepted [Content-Length] (default 4 MiB) *)
val parse_request :
  ?max_head:int -> ?max_body:int -> string -> off:int -> request parse

(** [parse_response buf ~off] parses one response starting at [off];
    same budgets and tolerances as {!parse_request}. A response without
    [Content-Length] has an empty body (the server side here always
    sends the header). *)
val parse_response :
  ?max_head:int -> ?max_body:int -> string -> off:int -> response parse

(** [parse_response_head buf ~off] is the first half of
    {!parse_response}: the status line and headers only, with the same
    grammar and budgets. [Complete ((resp, n), used)] gives the response
    with an empty [resp_body], the body length [n] its headers declare
    (0 without [Content-Length]), and the head's size [used]; the body
    starts at [off + used]. Lets a reader that already found the end of
    the head ({!head_end}) parse it once and then read exactly [n] body
    bytes, instead of re-parsing a growing buffer. *)
val parse_response_head :
  ?max_head:int -> ?max_body:int -> string -> off:int -> (response * int) parse

(** [head_end buf ~from ~len] is the offset just past the first blank
    line ([LF LF] or [LF CR LF]) that ends a head in [buf], scanning
    bytes [from .. len-1]. After appending bytes at [len], resume at
    [len - 2] (not earlier than the head's start): a terminator split
    across reads is still found and earlier bytes are not rescanned. *)
val head_end : Bytes.t -> from:int -> len:int -> int option

(** The default [max_head] budget (16 KiB). *)
val default_max_head : int

(** [header req name] is the value of the first header named [name]
    (give [name] lowercased). *)
val header : request -> string -> string option

val response_header : response -> string -> string option

(** [reason_phrase status] is the canonical phrase, ["Unknown"] for
    unregistered codes. *)
val reason_phrase : int -> string

(** [render_response ~status ~headers body] serializes a response with
    [Content-Length] computed from [body]; a [Connection] header is
    emitted only if present in [headers]. With [head:true] the body
    bytes are omitted while [Content-Length] still reflects them — the
    HEAD answer to the corresponding GET. *)
val render_response :
  ?headers:(string * string) list -> ?head:bool -> status:int -> string -> string

(** [render_request ~meth ~target ~headers body] serializes a request
    with [Content-Length] appended when [body] is non-empty. *)
val render_request :
  ?headers:(string * string) list -> meth:string -> target:string -> string -> string
