(** rPTE: the rIOMMU's flat-table page-table entry (Figure 9c).

    Unlike the baseline IOMMU's page-granular PTE, an rPTE carries an
    arbitrary byte-granular physical window plus a DMA direction,
    closing the same-page vulnerability of §4: the device can touch
    exactly the bytes of its target buffer, nothing else.

    An rPTE is the 128-bit hardware layout as two [int] words: word0 is
    the physical address, word1 packs [size lsl 3 lor dir lsl 1 lor
    valid]. The direction code's low bit lets the device write memory,
    its high bit lets it read. This module builds and reads word1. *)

type dir =
  | To_memory  (** device writes memory (receive) *)
  | From_memory  (** device reads memory (transmit) *)
  | Bidirectional

val invalid : int
(** Word1 of the all-zero entry rings start with. *)

val word1 : size:int -> dir:dir -> int
(** Word1 of a valid entry. Raises [Invalid_argument] if [size] is not
    in [\[1, 2^30)]. *)

val valid : int -> bool
val size : int -> int

val permits : int -> write:bool -> bool
(** Whether a DMA in the given direction (write = into memory) is
    allowed. Invalid entries permit nothing. *)
