(** Leaf page-table entries of the baseline (Intel VT-d style) IOMMU.

    A PTE maps one 4 KB I/O virtual page to a physical frame with
    read/write permission bits. Page granularity is the root of the
    same-page vulnerability the rIOMMU's byte-granular rPTEs close. *)

type t = { pfn : int; read : bool; write : bool }

val make : ?read:bool -> ?write:bool -> pfn:int -> unit -> t
(** Both permissions default to [true]. *)

val frame : t -> Rio_memory.Addr.phys
(** Physical address of the first byte of the mapped frame. *)

val permits : t -> write:bool -> bool
(** [permits t ~write] is whether a DMA of the given direction (write =
    device-to-memory) is allowed. *)

val encode : t -> int64
(** Hardware encoding: PFN in bits 12..51, R in bit 0, W in bit 1 (the
    layout VT-d uses for second-level entries). *)

val decode : int64 -> t option
(** Inverse of {!encode}; [None] when neither permission bit is set
    (a non-present entry). *)

(** {2 Packed immediate representation}

    The zero-alloc map/unmap path (flat arena table, IOTLB payloads)
    carries PTEs as packed OCaml [int]s: PFN in bits 2.., W in bit 1,
    R in bit 0. A packed PTE is always non-negative; {!packed_none}
    ([-1]) is the absence sentinel. *)

val packed_none : int

val pack : t -> int

val pack_make : read:bool -> write:bool -> pfn:int -> int
(** Allocation-free constructor of the packed form. *)

val packed_pfn : int -> int
val packed_frame : int -> Rio_memory.Addr.phys
(** Physical address of the first byte of the mapped frame. *)

val packed_permits : int -> write:bool -> bool
(** Direction check on the packed form (write = device-to-memory). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
