(** The rIOMMU hardware logic (Figure 10).

    [rtranslate_exn] is the entry point every DMA address goes through;
    the table walk, entry synchronization and prefetch routines mirror
    the paper's pseudocode. Out-of-order accesses to valid rPTEs are
    legal - they merely miss the prefetched [next] and pay a walk (§4,
    Applicability). All violations raise I/O page faults; drivers pin
    buffers, so faults indicate errant devices or driver bugs and OSes
    typically reinitialize the device. *)

type fault =
  | Unknown_device  (** bdf has no rDEVICE attached *)
  | Bad_ring  (** rIOVA.rid out of range *)
  | Bad_entry  (** rIOVA.rentry out of range *)
  | Invalid_entry  (** rPTE valid bit clear *)
  | Offset_out_of_range  (** rIOVA.offset >= rPTE.size *)
  | Direction_denied  (** DMA direction not permitted by rPTE.dir *)

val pp_fault : Format.formatter -> fault -> unit

exception Translation_fault
(** Raised by {!rtranslate_exn} for every fault class: an alias of
    {!Rio_iommu.Fault.Translation_fault}, which the baseline engine
    raises too. {!last_fault} names the class. *)

type t

val create : clock:Rio_sim.Cycles.t -> cost:Rio_sim.Cost_model.t -> t

val attach : t -> Rdevice.t -> unit
(** Install the device's rDEVICE (context-table entry) and one empty
    rIOTLB entry per ring, replacing any device at the same rid. *)

val detach : t -> rid:int -> unit
(** Remove the context-table entry and drop its rIOTLB entries. *)

val riotlb : t -> Riotlb.t

val invalidate : t -> bdf:int -> ring:int -> unit
(** Explicitly invalidate one ring's rIOTLB entry (charged even when
    the device or ring is unknown, like the command it models). *)

val rtranslate_exn : t -> bdf:int -> iova:int -> write:bool -> Rio_memory.Addr.phys
(** Translate one DMA address; [write] = device writes memory. Every
    fault bumps {!faults}, notes its class for {!last_fault} and raises
    {!Translation_fault}. Allocation-free. *)

val last_fault : t -> fault
(** The class of the last fault {!rtranslate_exn} raised. *)

val faults : t -> int
val walks : t -> int
(** Flat-table walks performed (rIOTLB misses and failed prefetches). *)

val prefetch_hits : t -> int
(** Entry synchronizations satisfied by the prefetched next rPTE. *)
