(** rIOVA: the rIOMMU's I/O virtual address format (Figure 9d).

    A 64-bit value packing a ring id (which rRING flat table), a ring
    entry index (which rPTE), and a byte offset added to the rPTE's
    physical base. The driver returns rIOVAs with offset 0; callers may
    adjust the offset freely within the rPTE's size. *)

type t = private { offset : int; rentry : int; rid : int }

val rentry_bits : int
(** 18 *)

val pack : offset:int -> rentry:int -> rid:int -> t
(** Raises [Invalid_argument] when a field exceeds its width. *)

val with_offset : t -> int -> t
(** Same ring entry, different offset (§4: "callers of map can later
    manipulate the offset as they please"). *)

val encode : t -> int64
(** Hardware 64-bit layout: [rid:16 | rentry:18 | offset:30]. *)

val decode : int64 -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
