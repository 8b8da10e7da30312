(** The rIOMMU OS driver: map and unmap (Figure 11).

    [map_exn] allocates the ring's tail rPTE (two integer updates - the
    whole "IOVA allocation"), fills it, publishes it with [sync_mem],
    and returns the packed rIOVA. [unmap_exn] clears the valid bit,
    publishes, and - only when the caller marks the end of an unmap
    burst - issues the single rIOTLB invalidation that covers the whole
    burst.

    The coherent/non-coherent distinction (riommu vs riommu-) lives in
    the {!Rio_memory.Coherency.t} the rings were created with: sync_mem
    costs one barrier when coherent, barrier+flush+barrier when not.

    Phases are attributed to {!Rio_sim.Breakdown} components using the
    same categories as the baseline driver so Figure 7's stacked bars
    compare like with like. *)

exception Overflow
(** Raised by {!map_exn} when the ring has no free rPTE. *)

exception Not_mapped
(** Raised by {!unmap_exn} for an rIOVA with no live rPTE: an alias of
    {!Rio_iommu.Fault.Not_mapped}, which the baseline engine raises
    too. *)

type t

val create :
  device:Rdevice.t ->
  hw:Hw.t ->
  clock:Rio_sim.Cycles.t ->
  cost:Rio_sim.Cost_model.t ->
  t
(** The device must already be (or must later be) attached to [hw]; the
    driver only needs [hw] for rIOTLB invalidations. *)

val map_exn :
  t -> rid:int -> phys:Rio_memory.Addr.phys -> size:int -> dir:Rpte.dir -> int
(** Map [size] bytes at [phys] (byte-granular - no page alignment
    required) into ring [rid] and return the rIOVA ({!Riova}, offset
    0). Raises {!Overflow} when the ring's tail rPTE is not free - the
    ring is full, or an out-of-order unmap left the tail live: legal,
    the driver must slow down (§4). A ring the device does not have is the
    caller's bug: [Invalid_argument]. Allocation-free. *)

val unmap_exn : t -> int -> end_of_burst:bool -> unit
(** Invalidate the rIOVA's rPTE. Set [end_of_burst] on the last unmap of
    a completion burst to trigger the (single) rIOTLB invalidation.
    Raises {!Not_mapped} when the rPTE is not valid, and for a ring or
    entry the device does not have. Allocation-free. *)

val map_breakdown : t -> Rio_sim.Breakdown.t
val unmap_breakdown : t -> Rio_sim.Breakdown.t

val nmapped : t -> rid:int -> int
(** Live mappings in ring [rid]. *)
