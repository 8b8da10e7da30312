(** Flat arena-backed four-level page table (zero-alloc map/unmap).

    Semantically identical to the boxed radix reference in
    [test/radix.ml], the differential oracle — same 48-bit four-level
    hierarchy, same cycle charges (one uncached CPU reference per level
    touched by the OS, one DRAM reference per level walked by the
    hardware, one [sync_mem] per store, node allocation through
    {!Rio_sim.Cost_model.charge_node_alloc}) — but stored as one
    growable packed-int lane shared by the OS and the walker (each
    store is synced inside its op, so the oracle's two views never
    differ). Cells are tagged immediates (empty / leaf PTE / child
    index), and released nodes thread an intrusive freelist that retains
    their backing frames. Steady-state [map_exn], [unmap_exn] and [walk]
    allocate zero words; the store is built at the first map and grows
    only when a fresh node is carved. PTEs cross this interface in the
    packed-int form of {!Pte.pack_make} (see Pte's packed accessors). *)

type t

exception Already_mapped
exception Not_mapped
(** An alias of {!Rio_iommu.Fault.Not_mapped}, the engines' one unmap
    failure. *)

val create :
  frames:Rio_memory.Frame_allocator.t ->
  coherency:Rio_memory.Coherency.t ->
  clock:Rio_sim.Cycles.t ->
  cost:Rio_sim.Cost_model.t ->
  t
(** An empty hierarchy: the root node's frame is drawn and exactly one
    node allocation charged, like the radix oracle's [create]. The cell
    store is host memory only, built at the first {!map_exn}; until
    then {!walk} and {!unmap_exn} charge what an empty root's descent
    charges (one reference) and miss. *)

val levels : int
(** 4. *)

val iova_bits : int
(** 48: IOVAs must be non-negative and below [2^iova_bits]. *)

val map_exn : t -> iova:int -> pte:int -> unit
(** Insert the IOVA=>packed-PTE translation: walk down from the root
    (carving intermediate nodes as needed), write the leaf, then sync it
    so the walker can see it. Allocation-free in steady state.
    @raise Already_mapped if the leaf is already present. *)

val unmap_exn : t -> iova:int -> int
(** Remove the translation and sync; returns the packed PTE that was
    mapped. Allocation-free. @raise Not_mapped if absent. *)

val walk : t -> iova:int -> int
(** Hardware page walk as performed on an IOTLB miss: reads each level's
    cell and charges one DRAM reference per level visited.
    {!Pte.packed_none} is an I/O page fault (translation absent). *)

val reset : t -> unit
(** Bulk teardown: drop every mapping and return every non-root node to
    the intrusive freelist (backing frames retained for reuse). A
    maintenance path: charges no cycles and models no coherency traffic. *)

val mapped_count : t -> int
(** Translations currently present. *)

val node_count : t -> int
(** Live page-table nodes (including the root). *)

val store_nodes : t -> int
(** High-water node slots carved from the arena store (live + free):
    the arena's resident footprint. *)
