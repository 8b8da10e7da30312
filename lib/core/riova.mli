(** rIOVA: the rIOMMU's I/O virtual address format (Figure 9d).

    One 62-bit word, [ring:14 | rentry:18 | offset:30] from the top:
    which rRING flat table, which rPTE in it, and a byte offset added
    to the rPTE's physical base. It fits an OCaml [int], so an rIOVA is
    an immediate everywhere: in descriptors, op logs and the hardware
    path. The paper's 16-bit ring id loses its top two bits; a device
    may have at most [2^ring_bits] rings ({!Rdevice.create} rejects
    more).

    The driver returns rIOVAs with offset 0; callers may adjust the
    offset freely within the rPTE's size ("callers of map can later
    manipulate the offset as they please", §4), plain [( + )] included
    while the sum stays inside the 30-bit field. *)

type t = private int
(** A word built by {!pack}: every field within its width. *)

val offset_bits : int
(** 30 *)

val rentry_bits : int
(** 18 *)

val ring_bits : int
(** 14 *)

val pack : offset:int -> rentry:int -> rid:int -> t
(** Raises [Invalid_argument] when a field exceeds its width. *)

(** The fields of any word a device presents, as the hardware decodes
    them. Bits above the 62-bit layout (a negative [int]) make the ring
    id negative, so such a word names no ring. *)

val rid : int -> int
val rentry : int -> int
val offset : int -> int
