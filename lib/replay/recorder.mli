(** Workload capture: a recording wrapper around {!Olar_serve.Pool.exec}.

    {!exec} runs one {!Olar_serve.Pool.request} on a session — same
    result, same exceptions as {!Olar_serve.Pool.exec} — and emits one
    {!Record.t} describing the call: the request's key
    ({!key_of_request}), the digest and size of the response
    ({!digest_response}, {!result_size}), the wall-clock latency, the
    traversal work attributed to the call (read as deltas of the engine
    context's shared work counters, so cached and uncached paths are
    costed identically), and the cache path the session took
    ({!Olar_serve.Session.last_path}).

    Records reach the caller through [emit] — typically
    {!Record.to_json_line} appended to a jsonl file, or {!Record.pp}
    for an EXPLAIN view. [slow_s] turns the recorder into a slow-query
    log: only calls at or above the threshold are emitted (the sequence
    number still advances for every call, so a slow-query log preserves
    each record's position in the session).

    A query that raises emits nothing — there is no result to digest —
    and the sequence number does not advance. *)

type t

(** [create ~emit session] wraps [session]. [slow_s] (seconds, default
    [0.] = record everything) suppresses records for faster queries;
    [clock] (default {!Olar_util.Timer.monotonic_s}, which cannot go
    backwards under system clock steps) is injectable for tests.
    Latencies are additionally clamped at 0 so a backwards-running
    injected clock can never record a negative latency. *)
val create :
  ?slow_s:float ->
  ?clock:(unit -> float) ->
  emit:(Record.t -> unit) ->
  Olar_serve.Session.t ->
  t

val session : t -> Olar_serve.Session.t

(** Number of queries issued through this recorder so far (including
    ones below the slow threshold). *)
val count : t -> int

(** [exec t req] is [Olar_serve.Pool.exec (session t) req], recorded.
    An [Append] folds on the session, exactly as during serving. *)
val exec : t -> Olar_serve.Pool.request -> Olar_serve.Pool.response

(** [key_of_request req] is the query key the recorder writes for
    [req]: a {!Record.t} whose outcome fields (seq, cache path, digest,
    size, latency, work, epoch) are neutral. [involving] (rule support)
    and [target] (boundary) are stored as [containing]; an append
    stores its delta's transactions and universe size.
    {!Replay.request_of_record} is its inverse. *)
val key_of_request : Olar_serve.Pool.request -> Record.t

(** [digest_response resp] is the FNV-1a digest of a response — the
    replay contract (DESIGN.md §9); [None] for
    {!Olar_serve.Pool.R_error}, which has no result to digest.
    - itemsets: each (itemset, integer support count), canonical order;
    - counts: the count;
    - rules: each (antecedent, consequent, support count, antecedent
      count), generation order;
    - FindSupport levels: a presence tag, then the bits of the
      fractional level;
    - boundaries: each (itemset, fractional support bits), kernel order;
    - appends: the promotion frontier, then the new database size.

    {!Replay.digest_response} is this function. *)
val digest_response : Olar_serve.Pool.response -> Fnv.t option

(** [result_size resp] is the size a record carries: entries, rules or
    promoted itemsets returned, the count itself for a count, 1 or 0
    for a FindSupport level (found or not), 0 for an error. *)
val result_size : Olar_serve.Pool.response -> int
