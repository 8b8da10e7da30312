(** DMA target buffers.

    A target buffer is the physical memory region a descriptor's DMA reads
    from or writes to. The NIC drivers in the paper use either one buffer
    per packet (brcm) or two — header and body — (mlx), and buffers are
    frequently sub-page: the baseline IOMMU can only protect them at page
    granularity, while the rIOMMU protects the exact [base, base+size)
    byte range. *)

type t = private {
  base : Addr.phys;
  size : int;
  mutable pinned : bool;
}

val alloc : Frame_allocator.t -> size:int -> t option
(** Allocate a buffer of [size] bytes, page-aligned, spanning as many
    frames as needed. [None] on exhaustion. The buffer starts pinned
    (drivers pin target buffers; DMAs are not restartable, §2.2). *)

val alloc_sub_page : Frame_allocator.t -> offsets:int list -> size:int ->
  t list option
(** Carve several [size]-byte buffers out of a single fresh frame at the
    given page offsets (they must fit and not overlap). This is the
    "different target buffers on the same page" situation of §4 that the
    baseline IOMMU cannot isolate. *)

val free : Frame_allocator.t -> t -> unit
(** Unpin and release the buffer's frames. Sub-page buffers share one
    frame: release it once, through {!Frame_allocator.free}. *)
