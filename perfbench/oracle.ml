(* The digest oracle: serial in-process execution of the same requests.

   Generation [g] is the engine after the first [g] appends of the
   stream, folded in order on the base engine. A read observed with
   generation bounds [lo, hi] is correct when its digest equals serial
   execution at some generation in that range; an append's digest must
   equal the serial fold at its own position. Digests are those of
   {!Olar_replay.Replay.digest_response}, the ones the server puts on
   the wire. *)

module Engine = Olar_core.Engine
module Pool = Olar_serve.Pool
module Replay = Olar_replay.Replay
module Fnv = Olar_replay.Fnv

type t = {
  engines : Engine.t array;  (** [engines.(g)]: after [g] appends *)
  appends : string array;  (** digest of append [i] (0-based) *)
}

let digest_hex resp =
  match Replay.digest_response resp with
  | Some d -> Fnv.to_hex d
  | None -> "error"

let create base (deltas : Stream.req array) =
  let n = Array.length deltas in
  let engines = Array.make (n + 1) base in
  let appends =
    Array.mapi
      (fun i (d : Stream.req) ->
        match d.request with
        | Pool.Append db ->
          let next, promoted = Engine.append engines.(i) db in
          engines.(i + 1) <- next;
          digest_hex (Pool.R_promoted { promoted; db_size = Engine.db_size next })
        | _ -> invalid_arg "Oracle.create: not an append")
      deltas
  in
  { engines; appends }

(* One observed read: table index, generation bounds, wire digest. *)
type read = {
  idx : int;
  lo : int;
  hi : int;
  digest : string;
}

(* [check t table reads] is the number of reads whose digest matches
   no serial execution in their generation range. The distinct
   (generation, request) executions are split over two domains, each
   with its own views of the engines. *)
let check t (table : Stream.req array) (reads : read list) =
  let need = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      for g = r.lo to min r.hi (Array.length t.engines - 1) do
        Hashtbl.replace need (g, r.idx) ""
      done)
    reads;
  let jobs = Array.of_seq (Hashtbl.to_seq_keys need) in
  Array.sort compare jobs;
  let run part =
    let pools = Hashtbl.create 8 in
    let pool g =
      match Hashtbl.find_opt pools g with
      | Some p -> p
      | None ->
        let p =
          Pool.create ~domains:1 ~budget_bytes:0 (Engine.view t.engines.(g))
        in
        Hashtbl.add pools g p;
        p
    in
    let out = ref [] in
    Array.iteri
      (fun i (g, idx) ->
        if i mod 2 = part then
          let resp = (Pool.run (pool g) [| table.(idx).Stream.request |]).(0) in
          out := ((g, idx), digest_hex resp) :: !out)
      jobs;
    Hashtbl.iter (fun _ p -> Pool.shutdown p) pools;
    !out
  in
  let other = Domain.spawn (fun () -> run 1) in
  let mine = run 0 in
  List.iter (fun (k, d) -> Hashtbl.replace need k d) (mine @ Domain.join other);
  List.fold_left
    (fun bad r ->
      let rec ok g =
        g <= r.hi && g < Array.length t.engines
        && (Hashtbl.find need (g, r.idx) = r.digest || ok (g + 1))
      in
      if ok r.lo then bad else bad + 1)
    0 reads
