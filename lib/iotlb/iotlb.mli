(** The baseline IOMMU's IOTLB: a bounded translation cache.

    Keyed by (device bdf, virtual page number), LRU-evicted at capacity.
    Entries are inserted by the hardware on a table-walk miss and removed
    either by an explicit single-entry invalidation (whose ~2,100-cycle
    command cost is the dominant unmap component of Table 1) or by a
    global flush (the deferred modes' batching strategy).

    The deferred modes' vulnerability window is directly observable: an
    entry stays usable after the OS unmapped the page until the flush
    arrives.

    Implementation: the (bdf, vpn) key is packed into a single immediate
    int, the index is hash buckets whose chains are threaded through the
    entry arrays (at least two buckets per entry), and the LRU is an
    intrusive index-based list — steady-state lookup, insert and
    invalidate allocate nothing. Payloads are ints (the baseline
    engine's packed PTEs), stored in an int lane. *)

type t

val create :
  capacity:int -> clock:Rio_sim.Cycles.t -> cost:Rio_sim.Cost_model.t -> unit -> t
(** [capacity] entries, fully associative, LRU replacement. *)

val find : t -> bdf:int -> vpn:int -> absent:int -> int
(** Hardware lookup: charges the (device-side) lookup cost, updates LRU
    and hit/miss counters, and returns the payload, or [absent] on a
    miss — pick an [absent] no payload can equal. Allocation- and
    exception-free. *)

val insert : t -> bdf:int -> vpn:int -> int -> int
(** Fill after a table walk; evicts the LRU entry at capacity. Returns
    the evicted entry's bdf, or -1 when nothing was evicted (explicit
    invalidations and flushes never count): what the multi-tenant layer
    uses to attribute cross-domain evictions. *)

val invalidate : t -> bdf:int -> vpn:int -> unit
(** Explicit single-entry invalidation: charges the full invalidation
    command cost whether or not the entry is present (the OS cannot
    know). *)

val flush_all : t -> unit
(** Global flush: drops every entry, charging one flush-command cost. *)

val drop : t -> bdf:int -> vpn:int -> bool
(** Remove an entry without charging any cycle cost; returns whether it
    was present. Building block for scoped (domain-selective)
    invalidation, whose single command cost the caller charges itself. *)

val iter : t -> (bdf:int -> vpn:int -> int -> unit) -> unit
(** Visit every resident entry (MRU first). No cycle cost: used by OS
    bookkeeping layers, not by the hardware path. The callback may
    {!drop} the entry it is visiting (and only that one). Allocates
    nothing itself. *)

val occupancy : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
