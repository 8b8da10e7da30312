(** Section 5.3: the IOTLB miss penalty in low-latency (user-level I/O)
    environments.

    Reproduces the ibverbs experiment: transmitting from a buffer picked
    at random out of a large previously-mapped pool (IOTLB misses
    nearly always) versus transmitting the same single buffer (IOTLB
    always hits). The latency difference is the miss penalty - a
    4-reference table walk, ~1,532 cycles (~0.5 us) on the paper's
    testbed - and approximates the benefit of the rIOMMU's prefetched
    rIOTLB in such setups. *)

type result = {
  hit_cycles : float;  (** device-side translation cost, IOTLB hit *)
  miss_cycles : float;  (** translation cost with random pool access *)
  penalty_cycles : float;
  penalty_us : float;
}

val measure : ?pool:int -> ?accesses:int -> ?seed:int -> unit -> result
val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
