(** Bounded single-producer / single-consumer ring of fixed-width
    integer cells, for cross-domain hand-off between the IO domain and
    a shard executor domain.

    Classic Lamport queue: a flat [int array] of [capacity * width]
    lanes plus two [Atomic.t] cursors — [tail] advanced only by the
    producer, [head] only by the consumer. A cell's lanes are plain
    writes; the cursor store after them is the publication point (OCaml
    [Atomic] is sequentially consistent, which subsumes the
    release/acquire pairing this protocol needs — see DESIGN.md §15).

    {!try_push} / {!try_pop} blit cells through caller-owned scratch
    arrays and are allocation-free: the hand-off itself never touches
    the GC, so a full request/response round trip between domains
    allocates nothing. *)

type t

val create : cap:int -> width:int -> t
(** Ring of at least [cap] cells (rounded up to a power of two) of
    [width] ints each. *)

val capacity : t -> int

val try_push : t -> src:int array -> bool
(** Copy [width t] ints from [src] into the ring. [false] when full.
    Producer-side only. Allocation-free. *)

val try_pop : t -> dst:int array -> bool
(** Copy the oldest cell into [dst]. [false] when empty.
    Consumer-side only. Allocation-free. *)

val length : t -> int
(** Cells currently queued. Exact from either endpoint's own side;
    a safe point-in-time reading from anywhere else. *)
