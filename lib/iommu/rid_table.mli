(** A compact map from PCI requester ids to values, for the per-DMA
    lookups of the translate path.

    Open addressing over a flat key array (linear probing,
    backward-shift deletion, no tombstones) with Fibonacci hashing on
    the {e high} bits of the product, because attached rids are
    [bus lsl 8] and their low bits are all zero. The table is sized to
    the attached set: 8 slots to start, doubling whenever it would pass
    half full, never to the 16-bit rid space. [find_exn], [mem] and
    [remove] allocate nothing; [replace] allocates one box per stored
    value and, rarely, a larger table. *)

type 'a t

val create : unit -> 'a t

val find_exn : 'a t -> int -> 'a
(** Raises [Not_found] if the key is absent. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding. Raises
    [Invalid_argument] on a negative key. *)

val remove : 'a t -> int -> unit
(** No-op if the key is absent. *)

val length : 'a t -> int
