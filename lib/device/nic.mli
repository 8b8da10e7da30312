(** NIC model: descriptor rings, per-packet buffer (un)mapping, DMA.

    Reproduces the driver behaviour the paper measures (§2.3, §5.1):

    - Tx: the driver allocates and maps the packet's target buffers (two
      for mlx - header and data - one for brcm), posts a descriptor,
      and the device reads the payload through the IOMMU. Completions
      are reclaimed in bursts: buffers unmapped FIFO with the burst's
      last unmap flagged [end_of_burst].
    - Rx: the driver keeps the receive ring replenished with mapped
      buffers; arriving packets are DMA-written through the IOMMU, then
      reaped: unmapped (burst-flagged) and handed up the stack.

    Ring id 0 is the Rx flat table, ring id 1 the Tx flat table (rIOMMU
    modes). Data-buffer sizes vary within the profile's page range,
    which is what drives the baseline IOVA allocator's pathology.

    Set [data_movement:false] to skip the actual byte copies (address
    translation, faults, and all driver-side costs still happen) - used
    by the long experiment runs; integration tests keep it on and verify
    payload integrity end to end. *)

type t

val ring_sizes : Nic_profiles.t -> int list
(** Flat-table sizes to put in the {!Rio_protect.Dma_api.config} for
    this profile (Rx ring, and Tx ring x buffers per packet). *)

val create :
  ?data_movement:bool ->
  profile:Nic_profiles.t ->
  api:Rio_protect.Dma_api.t ->
  mem:Rio_memory.Phys_mem.t ->
  rng:Rio_sim.Rng.t ->
  unit ->
  t

(** {1 Transmit path} *)

val tx_submit : t -> payload:bytes -> (unit, [ `Ring_full | `Map_failed ]) result
(** Driver: allocate + map the packet's buffers, post the descriptor. *)

val device_tx_process : t -> max:int -> int
(** Device: consume up to [max] posted Tx descriptors, DMA-reading each
    payload through translation; returns packets processed. Faults are
    counted, not raised. *)

val tx_reclaim : t -> int
(** Driver: unmap and free the buffers of all completed Tx packets (one
    burst; last unmap flagged). Returns packets reclaimed. *)

val tx_reclaim_next : t -> end_of_burst:bool -> bool
(** Reclaim a single completed Tx packet (oldest first); [false] when
    none is pending. Lets callers interleave Rx and Tx completion
    processing per packet, as the NAPI poll loop does. *)

val tx_completed : t -> int
(** Completions awaiting reclaim. *)

(** {1 Receive path} *)

val rx_fill : t -> int
(** Driver: replenish the Rx ring with freshly mapped buffers; returns
    buffers added. *)

val device_rx_deliver : t -> payload:bytes -> (unit, [ `No_buffer | `Fault ]) result
(** Device: an arriving packet consumes the head Rx descriptor and is
    DMA-written into its buffer. [`No_buffer] models an Rx ring
    underrun (packet drop). *)

val rx_reap : t -> bytes list
(** Driver: unmap, read out, and free all received-but-unreaped buffers
    (one burst); payloads returned in arrival order (empty bytes when
    data movement is off). *)

val rx_reap_next : t -> end_of_burst:bool -> bytes option
(** Reap a single received packet (oldest first). *)

val rx_pending : t -> int

(** {1 Statistics} *)

val tx_packets : t -> int
val rx_packets : t -> int
val dma_faults : t -> int
