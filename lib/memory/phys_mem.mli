(** Byte-addressable sparse physical memory.

    Devices DMA real bytes into this store and the tests verify data
    integrity end to end (a packet received through the rIOMMU translation
    path lands byte-identical in the target buffer). Frames materialize
    lazily on first touch. *)

type t

val create : unit -> t

val write : t -> Addr.phys -> bytes -> unit
(** Copy [bytes] into memory starting at the address; may cross frames. *)

val read : t -> Addr.phys -> int -> bytes
(** Read [len] bytes starting at the address. Untouched memory reads as
    zero. *)
