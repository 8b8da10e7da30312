(** Ablations of the rIOMMU design choices (beyond the paper's figures).

    Four sweeps isolate the mechanisms DESIGN.md calls out:

    - {b burst length}: the rIOMMU issues one rIOTLB invalidation per
      unmap burst; the paper notes netperf bursts average ~200 unmaps,
      making the ~2,100-cycle invalidation negligible. The sweep shows
      the amortization curve from burst 1 (latency-style) to 256.
    - {b ring sizing}: §4 requires N >= L (flat-table entries vs live
      DMAs) or the driver sees overflow; the sweep measures overflow
      rates across N for a fixed offered load.
    - {b IOTLB capacity}: the baseline IOMMU's device-side miss rate as
      the working set of concurrently-mapped buffers outgrows the IOTLB
      (the §5.3 situation).
    - {b coherent vs non-coherent walks}: the riommu/riommu- gap - and
      what the same coherency switch would do for the baseline - in
      cycles per map+unmap pair.
    - {b prefetch}: rIOTLB table walks per translation under in-order
      versus out-of-order ring access.
    - {b long-term pathology}: windowed average (alloc+find+free) cost of
      the Linux allocator versus the constant-time allocator under
      identical churn - the growth curve behind Table 1's strict-mode
      allocation numbers. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
