type request = {
  meth : string;
  target : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

type error = { status : int; reason : string }

type 'a parse =
  | Complete of 'a * int
  | Incomplete
  | Failed of error

(* Internal control flow: [Err] aborts the current parse with a status;
   [More] means the buffer holds a valid but incomplete prefix. Both are
   caught at the single public boundary, so no exception ever escapes. *)
exception Err of error
exception More

let err status reason = raise (Err { status; reason })

let default_max_head = 16 * 1024
let default_max_body = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Lexical helpers                                                    *)
(* ------------------------------------------------------------------ *)

let is_ws c = c = ' ' || c = '\t'

let trim s =
  let n = String.length s in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi && is_ws s.[!lo] do incr lo done;
  while !hi > !lo && is_ws s.[!hi - 1] do decr hi done;
  String.sub s !lo (!hi - !lo)

(* RFC 7230 token characters, the legal alphabet of methods and header
   names. Anything else in those positions is a malformed message, not
   a message we misread. *)
let is_tchar c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_'
  | '`' | '|' | '~' ->
    true
  | _ -> false

let is_token s = s <> "" && String.for_all is_tchar s

(* One head line starting at [pos]: the line's content (terminator
   stripped) and the offset just past the terminator. CRLF is the
   grammar; a bare LF is tolerated. A CR not followed by LF is rejected
   rather than smuggled into a value. Raises [More] when no terminator
   is in the buffer yet. *)
let read_line buf ~len pos =
  let nl = try String.index_from buf pos '\n' with Not_found -> raise More in
  if nl >= len then raise More;
  let stop = if nl > pos && buf.[nl - 1] = '\r' then nl - 1 else nl in
  let line = String.sub buf pos (stop - pos) in
  (match String.index_opt line '\r' with
  | Some _ -> err 400 "bare CR in header line"
  | None -> ());
  (line, nl + 1)

(* Header block: (name, value) pairs in arrival order, names lowercased,
   obs-fold continuations joined into the previous value with a single
   space. Returns the pairs and the offset just past the blank line. *)
let read_headers buf ~len ~max_head ~head_start pos0 =
  let rec go pos acc =
    if pos - head_start > max_head then err 431 "header section too large";
    let line, pos' = read_line buf ~len pos in
    if line = "" then (List.rev acc, pos')
    else if is_ws line.[0] then (
      match acc with
      | [] -> err 400 "continuation line before any header"
      | (name, value) :: rest ->
        go pos' ((name, value ^ " " ^ trim line) :: rest))
    else
      match String.index_opt line ':' with
      | None -> err 400 "header line without a colon"
      | Some colon ->
        let name = String.sub line 0 colon in
        if not (is_token name) then err 400 "malformed header name";
        let value = trim (String.sub line (colon + 1) (String.length line - colon - 1)) in
        go pos' ((String.lowercase_ascii name, value) :: acc)
  in
  go pos0 []

let find_all headers name =
  List.filter_map (fun (n, v) -> if n = name then Some v else None) headers

(* Content-Length per RFC 7230 §3.3.2: digits only; duplicates must
   agree; a value field can also be a comma-list of identical copies.
   Parsed with an explicit overflow check — a 30-digit length must be
   rejected, not wrapped into something plausible. *)
let content_length ~max_body headers =
  let parse_one v =
    let v = trim v in
    if v = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') v) then
      err 400 "malformed Content-Length";
    let n =
      String.fold_left
        (fun acc c ->
          let acc = (acc * 10) + (Char.code c - Char.code '0') in
          if acc < 0 || acc > max_int / 2 then
            err 413 "Content-Length overflows";
          acc)
        0 v
    in
    n
  in
  match find_all headers "content-length" with
  | [] -> 0
  | values ->
    let parts =
      List.concat_map (fun v -> String.split_on_char ',' v) values
    in
    let lengths = List.map parse_one parts in
    (match lengths with
    | n :: rest ->
      if List.exists (fun m -> m <> n) rest then
        err 400 "conflicting Content-Length";
      if n > max_body then err 413 "body exceeds limit";
      n
    | [] -> err 400 "empty Content-Length")

let reject_transfer_encoding headers =
  if find_all headers "transfer-encoding" <> [] then
    err 501 "Transfer-Encoding is not supported"

let check_version v =
  if not (v = "HTTP/1.1" || v = "HTTP/1.0") then
    err 505 "unsupported HTTP version"

(* Split on single spaces into exactly [n] fields; sloppier whitespace
   (double spaces, tabs) is malformed. *)
let fields line n =
  let parts = String.split_on_char ' ' line in
  if List.length parts <> n || List.exists (fun p -> p = "") parts then None
  else Some parts

(* The body length a head declares: [Content-Length], or 0 without one
   — for requests and responses alike. *)
let body_length ~max_body headers =
  reject_transfer_encoding headers;
  content_length ~max_body headers

let body_slice buf ~len blen pos =
  if len - pos < blen then raise More;
  (String.sub buf pos blen, pos + blen)

(* ------------------------------------------------------------------ *)
(* Public parsers                                                     *)
(* ------------------------------------------------------------------ *)

let guard f =
  try f () with
  | More -> Incomplete
  | Err e -> Failed e
  | _ -> Failed { status = 400; reason = "malformed message" }

let parse_request ?(max_head = default_max_head) ?(max_body = default_max_body)
    buf ~off =
  guard (fun () ->
      let len = String.length buf in
      if off < 0 || off > len then err 400 "offset out of bounds";
      let line, pos = read_line buf ~len off in
      if pos - off > max_head then err 431 "request line too long"
      else if line = "" then err 400 "empty request line"
      else
        match fields line 3 with
        | None -> err 400 "malformed request line"
        | Some [ meth; target; version ] ->
          if not (is_token meth) then err 400 "malformed method";
          check_version version;
          let headers, pos =
            read_headers buf ~len ~max_head ~head_start:off pos
          in
          let body, pos =
            body_slice buf ~len (body_length ~max_body headers) pos
          in
          Complete ({ meth; target; headers; body }, pos - off)
        | Some _ -> err 400 "malformed request line")

let parse_head ~max_head ~max_body buf ~off =
  let len = String.length buf in
  if off < 0 || off > len then err 400 "offset out of bounds";
  let line, pos = read_line buf ~len off in
  if pos - off > max_head then err 431 "status line too long";
  let version, status, reason =
    (* status line: HTTP/1.x SP 3DIGIT SP reason (reason may hold
       spaces, or be empty) *)
    match String.index_opt line ' ' with
    | None -> err 400 "malformed status line"
    | Some sp1 ->
      let version = String.sub line 0 sp1 in
      let rest = String.sub line (sp1 + 1) (String.length line - sp1 - 1) in
      let code, reason =
        match String.index_opt rest ' ' with
        | None -> (rest, "")
        | Some sp2 ->
          ( String.sub rest 0 sp2,
            String.sub rest (sp2 + 1) (String.length rest - sp2 - 1) )
      in
      if
        String.length code <> 3
        || not (String.for_all (fun c -> c >= '0' && c <= '9') code)
      then err 400 "malformed status code";
      (version, int_of_string code, reason)
  in
  check_version version;
  let resp_headers, pos = read_headers buf ~len ~max_head ~head_start:off pos in
  ( { status; reason; resp_headers; resp_body = "" },
    body_length ~max_body resp_headers,
    pos )

let parse_response_head ?(max_head = default_max_head)
    ?(max_body = default_max_body) buf ~off =
  guard (fun () ->
      let resp, body_length, pos = parse_head ~max_head ~max_body buf ~off in
      Complete ((resp, body_length), pos - off))

let parse_response ?(max_head = default_max_head)
    ?(max_body = default_max_body) buf ~off =
  guard (fun () ->
      let resp, blen, pos = parse_head ~max_head ~max_body buf ~off in
      let resp_body, pos = body_slice buf ~len:(String.length buf) blen pos in
      Complete ({ resp with resp_body }, pos - off))

(* The blank line ending a head: LF LF, or LF CR LF (bare LF tolerated,
   as in [read_line]). A caller that appends bytes resumes at two bytes
   before the old end, so a terminator split across reads is found and
   no byte is scanned more than three times. *)
let head_end buf ~from ~len =
  let at i c = i < len && Bytes.get buf i = c in
  let rec go i =
    if i >= len then None
    else if not (at i '\n') then go (i + 1)
    else if at (i + 1) '\n' then Some (i + 2)
    else if at (i + 1) '\r' && at (i + 2) '\n' then Some (i + 3)
    else go (i + 1)
  in
  go (max 0 from)

let header req name = List.assoc_opt name req.headers
let response_header resp name = List.assoc_opt name resp.resp_headers

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)
(* ------------------------------------------------------------------ *)

let reason_phrase = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Unknown"

(* [head:true] renders a HEAD answer: status, headers and the
   Content-Length the GET body would have, but no body bytes. *)
let render_response ?(headers = []) ?(head = false) ~status body =
  let b = Buffer.create (String.length body + 128) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason_phrase status));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n\r\n" (String.length body));
  if not head then Buffer.add_string b body;
  Buffer.contents b

let render_request ?(headers = []) ~meth ~target body =
  let b = Buffer.create (String.length body + 128) in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  if body <> "" || meth = "POST" then
    Buffer.add_string b
      (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b
