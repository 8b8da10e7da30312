(** Table 3: Netperf RR round-trip times in microseconds for both NICs
    across the seven modes, against the paper's measurements. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
(** One cell per (NIC, mode) RR simulation (DESIGN.md §10). *)
