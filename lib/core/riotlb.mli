(** rIOTLB: the rIOMMU's translation cache (Figure 9e).

    Holds {e at most one entry per rRING}. Every translation of a new
    ring entry overwrites the previous one in place - an implicit
    invalidation - so the OS only issues explicit invalidations at the
    end of unmap bursts. The entry also carries an optionally prefetched
    copy of the ring's next rPTE, fetched asynchronously (free of core
    and critical-path cost). *)

type entry = {
  mutable rentry : int;
  mutable rpte : Rpte.t;
  mutable next : Rpte.t option;  (** prefetched successor rPTE, if valid *)
}

type t

val create : clock:Rio_sim.Cycles.t -> cost:Rio_sim.Cost_model.t -> t

val find : t -> bdf:int -> rid:int -> entry option
(** Hardware lookup for the (device, ring) pair; charges the lookup cost
    and counts hit/miss. *)

val insert : t -> bdf:int -> rid:int -> entry -> unit
(** Install the ring's (single) entry, replacing any previous one. *)

val invalidate : t -> bdf:int -> rid:int -> unit
(** Explicit invalidation of the ring's entry; charges the full
    invalidation command cost (the paper busy-waits 2,150 cycles for
    this in its own evaluation). *)

val entries : t -> int
val hits : t -> int
val misses : t -> int
