(** SATA / AHCI disk model (§4, Applicability and Limitations).

    AHCI exposes a single queue of 32 slots that the drive may complete
    in {e arbitrary} order - no ring discipline, so the rIOMMU does not
    apply; the device is protected by the baseline IOMMU. The drive is
    slow (hundreds of MB/s at best), so per-request (un)map costs of a
    few thousand cycles vanish next to the millions of cycles of disk
    service time - the paper's Bonnie++ result that strict IOMMU
    protection and no IOMMU are indistinguishable on SATA. Disk service
    time is accumulated in [disk_cycles] for the bench harness. *)

type t

val slots : int
(** 32. *)

val create :
  ?data_movement:bool ->
  bandwidth_mbps:float ->
  api:Rio_protect.Dma_api.t ->
  mem:Rio_memory.Phys_mem.t ->
  rng:Rio_sim.Rng.t ->
  unit ->
  t

val submit : t -> bytes:int -> write:bool -> (unit, [ `Busy | `Map_failed ]) result
(** Issue one request if a slot is free; maps the target buffer and
    accrues the request's disk service time. *)

val device_complete : t -> max:int -> int
(** The drive finishes up to [max] in-flight requests in an arbitrary
    (randomized) slot order, moving the data through translation. *)

val reclaim : t -> int
(** Unmap and free the buffers of completed requests. *)

val disk_cycles : t -> int
(** Total disk service time accrued, in CPU-clock cycles (the bottleneck
    term for the Bonnie++ experiment). *)

val faults : t -> int
