(** Multi-tenant IOTLB interference (beyond the paper's evaluation).

    One latency-critical NIC tenant shares the IOMMU with a growing
    number of noisy NVMe/SATA neighbors. For each protection mode
    (strict / defer / riommu) and IOTLB policy (shared / partitioned;
    riommu has no shared IOTLB, so it runs once and prints [-]),
    measures the victim's throughput degradation relative to running
    alone, its miss rate, and how many of its IOTLB entries the
    neighbors evicted. *)

type cell = {
  mode : Rio_protect.Mode.t;
  policy : Rio_domain.Shared_iotlb.policy;
  noisy : int;  (** noisy-neighbor count *)
  victim_ops_per_mcycle : float;
  victim_degradation : float;  (** fraction lost vs. running alone *)
  victim_miss_rate : float;
  victim_evicted_by_other : int;
  noisy_ops_per_mcycle : float;  (** aggregate neighbor throughput *)
}

val measure :
  ?ios_per_tenant:int ->
  ?seed:int ->
  noisy_counts:int list ->
  unit ->
  cell list
(** The full grid: every (mode, policy, noisy count); riommu under
    [Shared] only. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
