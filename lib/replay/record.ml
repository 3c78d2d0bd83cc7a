open Olar_data
module Jsonx = Olar_obs.Jsonx

type kind =
  | Find_itemsets
  | Count_itemsets
  | Essential_rules
  | All_rules
  | Single_consequent_rules
  | Support_for_k_itemsets
  | Support_for_k_rules
  | Boundary
  | Append

type cache_path = Olar_serve.Session.path =
  | Hit
  | Refine
  | Miss
  | Passthrough

type t = {
  seq : int;
  kind : kind;
  containing : Itemset.t;
  antecedent_includes : Itemset.t;
  consequent_includes : Itemset.t;
  allow_empty_antecedent : bool;
  minsup : float option;
  minconf : float option;
  k : int option;
  delta : int list list;
  delta_num_items : int;
  cache : cache_path;
  digest : Fnv.t;
  result_size : int;
  latency_s : float;
  vertices : int;
  heap_pops : int;
  epoch : int;
}

let kind_to_string = function
  | Find_itemsets -> "find"
  | Count_itemsets -> "count"
  | Essential_rules -> "essential_rules"
  | All_rules -> "all_rules"
  | Single_consequent_rules -> "single_consequent_rules"
  | Support_for_k_itemsets -> "support_for_k_itemsets"
  | Support_for_k_rules -> "support_for_k_rules"
  | Boundary -> "boundary"
  | Append -> "append"

let kind_of_string = function
  | "find" -> Some Find_itemsets
  | "count" -> Some Count_itemsets
  | "essential_rules" -> Some Essential_rules
  | "all_rules" -> Some All_rules
  | "single_consequent_rules" -> Some Single_consequent_rules
  | "support_for_k_itemsets" -> Some Support_for_k_itemsets
  | "support_for_k_rules" -> Some Support_for_k_rules
  | "boundary" -> Some Boundary
  | "append" -> Some Append
  | _ -> None

let cache_path_to_string = function
  | Hit -> "hit"
  | Refine -> "refine"
  | Miss -> "miss"
  | Passthrough -> "pass"

let cache_path_of_string = function
  | "hit" -> Some Hit
  | "refine" -> Some Refine
  | "miss" -> Some Miss
  | "pass" -> Some Passthrough
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let itemset_json x =
  Jsonx.Arr (List.map (fun i -> Jsonx.Int i) (Itemset.to_list x))

(* The query key's fields, in wire order; empty ones are omitted. Both
   encoders below are built from this one list. *)
let key_fields r =
  let itemset name x =
    if Itemset.is_empty x then [] else [ (name, itemset_json x) ]
  in
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  List.concat
    [
      [ ("kind", Jsonx.Str (kind_to_string r.kind)) ];
      itemset "containing" r.containing;
      itemset "antecedent" r.antecedent_includes;
      itemset "consequent" r.consequent_includes;
      (if r.allow_empty_antecedent then [ ("allow_empty", Jsonx.Bool true) ]
       else []);
      opt "minsup" (fun s -> Jsonx.Float s) r.minsup;
      opt "minconf" (fun c -> Jsonx.Float c) r.minconf;
      opt "k" (fun k -> Jsonx.Int k) r.k;
      (if r.delta = [] then []
       else
         [
           ( "delta",
             Jsonx.Arr
               (List.map
                  (fun txn -> Jsonx.Arr (List.map (fun i -> Jsonx.Int i) txn))
                  r.delta) );
         ]);
      (if r.delta_num_items > 0 then
         [ ("num_items", Jsonx.Int r.delta_num_items) ]
       else []);
    ]

let to_json_line r =
  Jsonx.to_string
    (Jsonx.Obj
       ((("v", Jsonx.Int 1) :: ("seq", Jsonx.Int r.seq) :: key_fields r)
       @ [
           ("cache", Jsonx.Str (cache_path_to_string r.cache));
           ("digest", Jsonx.Str (Fnv.to_hex r.digest));
           ("size", Jsonx.Int r.result_size);
           ("lat_s", Jsonx.Float r.latency_s);
           ("vertices", Jsonx.Int r.vertices);
           ("pops", Jsonx.Int r.heap_pops);
           ("epoch", Jsonx.Int r.epoch);
         ]))

(* The key alone — the wire body of the serving daemon's POST /query.
   Outcome fields (digest, latency, work, cache path) describe an
   execution that has not happened yet, so they are simply absent. *)
let key_to_json_line r =
  Jsonx.to_string (Jsonx.Obj (("v", Jsonx.Int 1) :: key_fields r))

(* ------------------------------------------------------------------ *)
(* Decoding (strict)                                                  *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let req name = function
  | Some v -> v
  | None -> fail "missing field %S" name

let as_int name = function
  | Jsonx.Int i -> i
  | _ -> fail "field %S: expected integer" name

let as_float name = function
  | Jsonx.Int i -> float_of_int i
  | Jsonx.Float f -> f
  | _ -> fail "field %S: expected number" name

let as_str name = function
  | Jsonx.Str s -> s
  | _ -> fail "field %S: expected string" name

let as_itemset name v =
  match Jsonx.to_list v with
  | None -> fail "field %S: expected array" name
  | Some items -> Itemset.of_list (List.map (as_int name) items)

(* [strict] decodes a full log record: every outcome field is required.
   With [strict = false] (the wire-key mode behind {!key_of_json_line})
   the outcome fields — and "v"/"seq" — are optional with neutral
   defaults, but anything present must still parse and unknown kinds
   are still rejected. *)
let decode ~strict line =
  match Jsonx.of_string line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok json -> (
    try
      (match json with Jsonx.Obj _ -> () | _ -> fail "expected an object");
      let m name = Jsonx.member name json in
      let opt name f = Option.map (f name) (m name) in
      let dflt name f d = match m name with None when not strict -> d | v -> f name (req name v) in
      let version = dflt "v" as_int 1 in
      if version <> 1 then fail "unsupported record version %d" version;
      let kind_s = as_str "kind" (req "kind" (m "kind")) in
      let kind =
        match kind_of_string kind_s with
        | Some k -> k
        | None -> fail "unknown kind %S" kind_s
      in
      let cache_s = dflt "cache" as_str (cache_path_to_string Passthrough) in
      let cache =
        match cache_path_of_string cache_s with
        | Some c -> c
        | None -> fail "unknown cache path %S" cache_s
      in
      let digest_s = dflt "digest" as_str (Fnv.to_hex Fnv.empty) in
      let digest =
        match Fnv.of_hex digest_s with
        | Some d -> d
        | None -> fail "bad digest %S" digest_s
      in
      let itemset_field name =
        match m name with
        | None -> Itemset.empty
        | Some v -> as_itemset name v
      in
      let delta =
        match m "delta" with
        | None -> []
        | Some v -> (
          match Jsonx.to_list v with
          | None -> fail "field \"delta\": expected array"
          | Some txns ->
            List.map
              (fun txn ->
                match Jsonx.to_list txn with
                | None -> fail "field \"delta\": expected array of arrays"
                | Some items -> List.map (as_int "delta") items)
              txns)
      in
      Ok
        {
          seq = dflt "seq" as_int 0;
          kind;
          containing = itemset_field "containing";
          antecedent_includes = itemset_field "antecedent";
          consequent_includes = itemset_field "consequent";
          allow_empty_antecedent =
            (match m "allow_empty" with
            | Some (Jsonx.Bool b) -> b
            | Some _ -> fail "field \"allow_empty\": expected bool"
            | None -> false);
          minsup = opt "minsup" as_float;
          minconf = opt "minconf" as_float;
          k = opt "k" as_int;
          delta;
          delta_num_items =
            (match opt "num_items" as_int with Some n -> n | None -> 0);
          cache;
          digest;
          result_size = dflt "size" as_int 0;
          latency_s = dflt "lat_s" as_float 0.0;
          vertices = dflt "vertices" as_int 0;
          heap_pops = dflt "pops" as_int 0;
          epoch = dflt "epoch" as_int 0;
        }
    with Bad msg -> Error msg)

let of_json_line line = decode ~strict:true line
let key_of_json_line line = decode ~strict:false line

(* ------------------------------------------------------------------ *)
(* EXPLAIN rendering                                                  *)
(* ------------------------------------------------------------------ *)

let pp_itemset ppf x =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (Itemset.to_list x)))

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "#%d %s" r.seq (kind_to_string r.kind);
  if not (Itemset.is_empty r.containing) then
    Format.fprintf ppf " %a" pp_itemset r.containing;
  Option.iter (fun s -> Format.fprintf ppf " minsup=%g" s) r.minsup;
  Option.iter (fun c -> Format.fprintf ppf " minconf=%g" c) r.minconf;
  Option.iter (fun k -> Format.fprintf ppf " k=%d" k) r.k;
  if not (Itemset.is_empty r.antecedent_includes) then
    Format.fprintf ppf " antecedent⊇%a" pp_itemset r.antecedent_includes;
  if not (Itemset.is_empty r.consequent_includes) then
    Format.fprintf ppf " consequent⊇%a" pp_itemset r.consequent_includes;
  if r.allow_empty_antecedent then Format.fprintf ppf " allow-empty-antecedent";
  if r.delta <> [] then
    Format.fprintf ppf " delta=%d txns over %d items" (List.length r.delta)
      r.delta_num_items;
  Format.fprintf ppf "@,  cache=%s size=%d digest=%s"
    (cache_path_to_string r.cache)
    r.result_size (Fnv.to_hex r.digest);
  Format.fprintf ppf "@,  latency=%.3fms vertices=%d heap_pops=%d epoch=%d"
    (r.latency_s *. 1000.0) r.vertices r.heap_pops r.epoch;
  Format.fprintf ppf "@]"
