(* Closed-loop clients: each connection sends its next request only
   after the previous reply has arrived, as an analyst does. One
   systhread per connection, all in the bench's single domain: the
   threads spend their time blocked in socket reads, which release the
   runtime lock, and a single domain never has to stop its peers for a
   minor collection while the two cores run the server. *)

let monotonic = Olar_util.Timer.monotonic_s

type action =
  | Read of int  (** index into the stream's table *)
  | Append of int  (** index into the stream's deltas *)

type sample = {
  action : action;
  t0 : float;  (** monotonic, just before the send *)
  t1 : float;  (** monotonic, once the whole reply is in *)
  status : int;  (** HTTP status; 0 for a transport error or bad reply *)
  reply : Wire.reply option;  (** the fields of a 200 reply *)
  bytes : int;  (** reply body length *)
  lo : int;  (** appends acknowledged before the send *)
  hi : int;  (** appends sent before the reply arrived *)
}

(* Append bookkeeping shared by the clients of one run: the generation
   range a read may legitimately have executed at. *)
type gens = {
  sent : int Atomic.t;
  acked : int Atomic.t;
}

let gens () = { sent = Atomic.make 0; acked = Atomic.make 0 }

let rtt s = s.t1 -. s.t0
let ok s = s.status = 200
let is_read s = match s.action with Read _ -> true | Append _ -> false

let client server (stream : Stream.t) gens plan =
  let fd = Wire.connect server in
  let out = ref [] in
  let rec loop () =
    match plan () with
    | None -> ()
    | Some action ->
      let req =
        match action with
        | Read i -> stream.table.(i)
        | Append i ->
          Atomic.incr gens.sent;
          stream.deltas.(i)
      in
      let lo = Atomic.get gens.acked in
      let t0 = monotonic () in
      let res = Wire.roundtrip fd req.http in
      let t1 = monotonic () in
      let hi = Atomic.get gens.sent in
      let status, reply, bytes =
        match res with
        | Ok (200, body) -> (
          match Wire.parse_reply body with
          | Some r -> (200, Some r, String.length body)
          | None -> (0, None, String.length body))
        | Ok (status, body) -> (status, None, String.length body)
        | Error _ -> (0, None, 0)
      in
      (match action with
      | Append _ when status = 200 -> Atomic.incr gens.acked
      | _ -> ());
      out := { action; t0; t1; status; reply; bytes; lo; hi } :: !out;
      (* a broken connection ends this client; the failure is counted *)
      if status <> 0 then loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop;
  List.rev !out

(* [run server stream gens plans] drives one client per plan at once
   and returns each client's samples in send order. *)
let run server stream gens plans =
  let results = List.map (fun _ -> ref []) plans in
  let threads =
    List.map2
      (fun plan out -> Thread.create (fun () -> out := client server stream gens plan) ())
      plans results
  in
  List.iter Thread.join threads;
  List.map ( ! ) results

(* Plans. *)

(* Reads from [seq], resuming at [!pos], until [t_end]; before each
   read, the append that [due] names, if any. *)
let timed ~due seq pos ~t_end () =
  if monotonic () >= t_end then None
  else
    match due () with
    | Some i -> Some (Append i)
    | None ->
      let i = seq.(!pos mod Array.length seq) in
      incr pos;
      Some (Read i)

(* The actions of [script], once, each [gap] seconds after the reply
   to the previous one. *)
let scripted ?(gap = 0.0) script =
  let pos = ref 0 in
  fun () ->
    if !pos >= Array.length script then None
    else begin
      if !pos > 0 && gap > 0.0 then Thread.delay gap;
      incr pos;
      Some script.(!pos - 1)
    end
