(** Section 5.4: comparing the rIOTLB to classic TLB prefetchers.

    Replays a DMA trace logged from the strict-mode NIC model (the
    paper's methodology: log the device's DMAs, feed the prefetchers)
    against Markov, Recency and Distance - in
    their baseline form (history invalidated with each unmap; the paper
    found them ineffective) and the paper's modified form (history
    retained, predictions checked against the page table) across history
    sizes below and above the ring size - and against the rIOTLB's
    two-entry next-slot scheme. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
