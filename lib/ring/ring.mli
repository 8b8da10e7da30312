(** Circular producer/consumer descriptor rings (§2.3, Figure 3).

    The driver posts descriptors at the tail; the device consumes from
    the head in order. Both indices wrap. The content available to the
    device is [\[head, tail)]. *)

type 'a t

val create : size:int -> 'a t
(** [size] must be positive. One slot is kept empty to distinguish full
    from empty, as real rings do: capacity is [size - 1]. *)

val size : 'a t -> int
val length : 'a t -> int
(** Descriptors currently available to the device. *)

val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val post : 'a t -> 'a -> (int, [ `Full ]) result
(** Driver-side: place a descriptor at the tail; returns the slot index
    it occupied. *)

val consume : 'a t -> 'a option
(** Device-side: remove and return the head descriptor. *)

val check_invariants : 'a t -> (unit, string) result
(** head/tail within bounds, length consistent. *)
