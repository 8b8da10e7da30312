(** Physical addresses and page arithmetic.

    Addresses are 48-bit values carried in OCaml [int]s (63-bit native ints
    are ample). Pages are the x86 4 KB pages the baseline IOMMU protects;
    cachelines are 64 bytes. *)

val page_size : int
(** 4096. *)

val page_shift : int
(** 12. *)

type phys = private int
(** A physical byte address. *)

val phys_of_int : int -> phys
(** Raises [Invalid_argument] on negative addresses. *)

val to_int : phys -> int
val pfn : phys -> int
(** Physical frame number: [addr / page_size]. *)

val of_pfn : int -> phys
(** First byte of frame [pfn]. *)

val page_offset : phys -> int
(** [addr mod page_size]. *)

val add : phys -> int -> phys
(** Byte offset arithmetic. *)

val is_page_aligned : phys -> bool
val pp : Format.formatter -> phys -> unit
(** Hex rendering, e.g. [0x00012000]. *)
