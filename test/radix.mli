(** Four-level radix page table (the baseline IOMMU's hierarchy, Figure 2),
    boxed: the differential oracle that {!Rio_pagetable.Arena} is tested
    against.

    A 48-bit IOVA splits into a 36-bit virtual page number — four 9-bit
    indices into 512-entry tables — and a 12-bit page offset. The OS
    updates the table through {!map}/{!unmap}; the IOMMU hardware resolves
    IOTLB misses through {!walk}.

    Coherency is modeled faithfully: every slot keeps a CPU view and a
    walker view. On a non-coherent system the walker view only catches up
    when the OS calls sync (a barrier + cacheline flush, whose cycles are
    charged); forgetting to sync leaves the walker reading stale entries —
    observable in tests. Cycle costs of the OS traversal (pointer chases)
    and of the hardware walk (DRAM references) are charged to the clock. *)

type t

val create :
  frames:Rio_memory.Frame_allocator.t ->
  coherency:Rio_memory.Coherency.t ->
  clock:Rio_sim.Cycles.t ->
  cost:Rio_sim.Cost_model.t ->
  t
(** An empty hierarchy (root table allocated eagerly). *)

val levels : int
(** 4. *)

val map : t -> iova:int -> Rio_pagetable.Pte.t -> (unit, [ `Already_mapped ]) result
(** Insert the IOVA=>PTE translation: walk down from the root (allocating
    intermediate tables as needed), write the leaf, then sync it so the
    walker can see it. *)

val unmap : t -> iova:int -> (Rio_pagetable.Pte.t, [ `Not_mapped ]) result
(** Remove the translation and sync; returns the PTE that was mapped. *)

val lookup_cpu : t -> iova:int -> Rio_pagetable.Pte.t option
(** The CPU's (OS's) current view, without charging cycles. *)

val walk : t -> iova:int -> Rio_pagetable.Pte.t option
(** Hardware page walk as performed on an IOTLB miss: reads the walker
    view of each level and charges 4 DRAM references. [None] is an I/O
    page fault (translation absent — or present but not yet synced on a
    non-coherent system). *)

val mapped_count : t -> int
(** Translations currently present in the CPU view. *)

val node_count : t -> int
(** Page-table pages allocated (including the root). *)

val iova_bits : int
(** 48: IOVAs must be non-negative and below [2^iova_bits]. *)
