(** The DMA engine: actual byte movement through address translation.

    Every device model moves its data through these two functions, which
    translate each page-contiguous chunk via the protection layer (the
    interception of Figure 5) and copy real bytes in {!Rio_memory.Phys_mem}.
    Tests verify end-to-end data integrity under every mode; a fault
    aborts the transfer mid-way, exactly like a real master abort. *)

val write_to_memory :
  api:Rio_protect.Dma_api.t ->
  mem:Rio_memory.Phys_mem.t ->
  addr:int ->
  data:bytes ->
  (unit, string) result
(** Device-to-memory DMA (receive path): store [data] at descriptor
    address [addr]. *)

val read_from_memory :
  api:Rio_protect.Dma_api.t ->
  mem:Rio_memory.Phys_mem.t ->
  addr:int ->
  len:int ->
  (bytes, string) result
(** Memory-to-device DMA (transmit path): fetch [len] bytes from
    descriptor address [addr]. *)
