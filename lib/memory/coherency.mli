(** CPU-cache / IOMMU-walker coherency model.

    On machines where the I/O page walker is not coherent with the CPU
    caches (the common case on the paper's testbed), a page-table or rPTE
    update written by the CPU is invisible to the IOMMU until the driver
    issues a barrier and a cacheline flush. The structures the walker
    reads model that visibility themselves: [Arena] and [Rring] keep a
    CPU lane and a walker lane, and a CPU store reaches the walker lane
    only on a coherent system or at the entry's sync. This module
    charges the cycle costs of those barriers and flushes, which is
    precisely the riommu vs riommu- difference the paper measures. *)

type t

val create :
  coherent:bool -> cost:Rio_sim.Cost_model.t -> clock:Rio_sim.Cycles.t -> t

val is_coherent : t -> bool
(** Whether the walker sees CPU stores without a flush: a structure
    copies a store into its walker lane at once when this holds. *)

val barrier : t -> unit
(** Full memory barrier; always charged (both sync_mem variants in the
    paper's Figure 11 execute at least one barrier). *)

val sync_mem : t -> unit
(** The paper's [sync_mem] (Figure 11): on a non-coherent system, a
    barrier, a cacheline flush, then a second barrier; on a coherent
    system a single barrier. Only the charge is modelled: the structure
    being synced publishes its own entry, so no address is needed. *)
