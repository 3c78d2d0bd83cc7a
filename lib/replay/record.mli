(** One line of the workload log: the full query key, the result
    digest, and the per-query cost observations.

    A record is what the {!Recorder} emits per query and what
    {!Replay} re-executes. The wire format is one compact JSON object
    per line (jsonl), self-describing enough to rebuild the exact call:
    kind, start itemset, thresholds, boundary constraints, [k], and —
    for appends — the delta transactions themselves. Alongside the key
    it carries the {e outcome}: an FNV-1a digest of the result in
    canonical order (see {!digest} semantics in DESIGN.md §9), the
    result size, wall-clock latency, the traversal work counters, and
    which cache path the session served it from. *)

open Olar_data

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

(** How the session served the query: the session's own
    {!Olar_serve.Session.path}, re-exported so records and sessions share
    one type. *)
type cache_path = Olar_serve.Session.path =
  | Hit
  | Refine
  | Miss
  | Passthrough

type t = {
  seq : int;  (** position in the log, 0-based *)
  kind : kind;
  containing : Itemset.t;
      (** start itemset: [containing] for find/count/rules,
          [involving] for rule-support, the target for boundary;
          empty otherwise *)
  antecedent_includes : Itemset.t;  (** boundary/rule constraints (P) *)
  consequent_includes : Itemset.t;  (** boundary/rule constraints (Q) *)
  allow_empty_antecedent : bool;
  minsup : float option;  (** fractional, as the caller passed it *)
  minconf : float option;
  k : int option;  (** rank for the FindSupport flavours *)
  delta : int list list;  (** append only: the batch's transactions *)
  delta_num_items : int;  (** append only: the delta database's universe *)
  cache : cache_path;  (** how the session served it *)
  digest : Fnv.t;  (** FNV-1a over the canonical-order result *)
  result_size : int;  (** itemsets / rules returned, count value, … *)
  latency_s : float;
  vertices : int;  (** vertex expansions attributed to this query *)
  heap_pops : int;  (** best-first pops attributed to this query *)
  epoch : int;
      (** engine epoch the query ran against — informational only;
          epochs are process-wide counters and are NOT compared by
          replay *)
}

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val cache_path_to_string : cache_path -> string

(** [to_json_line r] is the compact one-line JSON encoding (no trailing
    newline). Empty itemsets, [None] thresholds, and append-only fields
    are omitted. *)
val to_json_line : t -> string

(** [of_json_line s] parses one log line, strictly: unknown kinds, bad
    digests, or missing required fields are [Error]. *)
val of_json_line : string -> (t, string) result

(** [key_to_json_line r] encodes only the query key — kind, itemsets,
    thresholds, delta — omitting every outcome field. This is the wire
    body a client POSTs to the serving daemon's [/query] endpoint. *)
val key_to_json_line : t -> string

(** [key_of_json_line s] parses a query key: the same grammar as
    {!of_json_line} except that ["v"], ["seq"] and the outcome fields
    are optional (defaulting to version 1, seq 0, cache [Passthrough],
    an empty digest and zero cost). Present fields must still parse;
    unknown kinds are still rejected. *)
val key_of_json_line : string -> (t, string) result

(** [pp ppf r] renders the record as a human-readable EXPLAIN block:
    the query key on the first line, outcome (cache path, size, digest)
    on the second, cost (latency, work counters) on the third. *)
val pp : Format.formatter -> t -> unit
