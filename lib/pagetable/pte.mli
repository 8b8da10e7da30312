(** Leaf page-table entries of the baseline (Intel VT-d style) IOMMU.

    A PTE maps one 4 KB I/O virtual page to a physical frame with
    read/write permission bits. Page granularity is the root of the
    same-page vulnerability the rIOMMU's byte-granular rPTEs close. *)

(** {2 Packed immediate representation}

    The zero-alloc map/unmap path (flat arena table, IOTLB payloads)
    carries PTEs as packed OCaml [int]s: PFN in bits 2.., W in bit 1,
    R in bit 0. A packed PTE is always non-negative; {!packed_none}
    ([-1]) is the absence sentinel. *)

val packed_none : int

val pack_make : read:bool -> write:bool -> pfn:int -> int
(** Allocation-free constructor of the packed form. *)

val packed_frame : int -> Rio_memory.Addr.phys
(** Physical address of the first byte of the mapped frame. *)

val packed_permits : int -> write:bool -> bool
(** Direction check on the packed form (write = device-to-memory). *)
