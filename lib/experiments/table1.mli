(** Table 1: average cycle breakdown of the (un)map driver functions
    under strict / strict+ / defer / defer+, measured from the netperf
    stream simulation on the mlx profile and compared against the
    paper's published cells. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
(** One cell per protection mode (DESIGN.md §10). *)
