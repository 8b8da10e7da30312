(** Figure 7: CPU cycles to process one packet, stacked by component
    (IOTLB invalidation / page table updates / IOVA (de)allocation /
    everything else), for the seven modes on mlx. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
(** One cell per evaluated mode (DESIGN.md §10). *)
