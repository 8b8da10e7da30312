(** NVMe PCIe SSD model (§4, Applicability).

    NVMe interaction is ring-based: up to 64K submission/completion queue
    pairs, each holding up to 64K commands, processed in ring order -
    which is exactly the discipline the rIOMMU exploits, so PCIe SSDs
    benefit from it just like NICs. Each queue pair takes one rRING
    here, and a device has at most [2^14] of them (the ring field of
    {!Rio_core.Riova}), so this model covers 16K of the 64K pairs. Each command carries one target
    buffer here (a PRP list collapses to a contiguous range in this
    model). *)

type t

val ring_sizes : queues:int -> depth:int -> int list
(** rIOMMU flat-table sizes for a [queues]-pair device (one table per
    queue). *)

val create :
  ?data_movement:bool ->
  queues:int ->
  depth:int ->
  api:Rio_protect.Dma_api.t ->
  mem:Rio_memory.Phys_mem.t ->
  unit ->
  t

val submit :
  t ->
  queue:int ->
  bytes:int ->
  write:bool ->
  (unit, [ `Queue_full | `Map_failed ]) result
(** Post one I/O command: map the target buffer and enqueue. [write]
    means a disk write (device reads memory). *)

val device_process : t -> queue:int -> max:int -> int
(** The controller consumes up to [max] commands from the queue head, in
    order, moving data through translation. *)

val reclaim : t -> queue:int -> int
(** Process the completion queue: unmap the buffers of finished commands
    (one burst). *)

val completed_total : t -> int
val faults : t -> int
