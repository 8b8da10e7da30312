(** Domain-safe memoization for deterministic shared computations.

    Experiment cells running on a pool may want the same intermediate
    result (a netperf stream point, a DMA trace). A [Memo.t] replaces
    the bare [Hashtbl] caches those code paths used when everything was
    sequential: lookups and inserts are serialized, and the computation
    for one key holds a per-key lock, so concurrent requests for the
    same key block and share one result while different keys still
    compute in parallel.

    The computation must be a pure function of the key (that is what
    makes memoized parallel runs deterministic); if it raises, nothing
    is cached and the next caller retries. *)

type ('k, 'v) t

val create : ?size:int -> unit -> ('k, 'v) t

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
