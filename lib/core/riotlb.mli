(** rIOTLB: the rIOMMU's translation cache (Figure 9e).

    Holds {e at most one entry per rRING}. Every translation of a new
    ring entry overwrites the previous one in place - an implicit
    invalidation - so the OS only issues explicit invalidations at the
    end of unmap bursts. The entry also carries an optionally prefetched
    copy of the ring's next rPTE, fetched asynchronously (free of core
    and critical-path cost).

    An entry is a record of mutable ints, made once per ring when
    {!Hw.attach} installs the device and then overwritten in place by
    walks and syncs; this module keeps the shared lookup counters and
    charges the lookup and invalidation costs. *)

type entry = {
  mutable rentry : int;  (** the cached ring entry; -1 when empty *)
  mutable phys : int;  (** its rPTE word0 *)
  mutable word1 : int;  (** its rPTE word1 *)
  mutable next_phys : int;
  mutable next_word1 : int;
      (** the prefetched successor rPTE; its valid bit means present *)
}

val empty : unit -> entry
(** A fresh empty entry. *)

type t

val create : clock:Rio_sim.Cycles.t -> cost:Rio_sim.Cost_model.t -> t

val find : t -> entry -> bool
(** Hardware lookup of a ring's entry: charges the lookup cost, counts a
    hit or a miss, and says whether the entry is present. *)

val fill : t -> entry -> rentry:int -> phys:int -> word1:int -> unit
(** Install the rPTE of ring entry [rentry] (a table walk's result),
    replacing whatever the entry held. *)

val invalidate : t -> entry -> unit
(** Explicit invalidation of the ring's entry; charges the full
    invalidation command cost (the paper busy-waits 2,150 cycles for
    this in its own evaluation). *)

val drop : t -> entry -> unit
(** Forget the entry without charging (its device was detached). *)

val entries : t -> int
(** Present entries. *)

val hits : t -> int
val misses : t -> int
