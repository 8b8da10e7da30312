(** Figure 8: Netperf stream throughput as a function of the cycles
    spent processing one packet.

    Sweeps C with a busy-wait added to the unprotected baseline (the
    paper's thin line), prints the analytic model Gbps(C) = 1500x8xS/C
    (thick line), and places the seven modes' measured (C, throughput)
    points (crosses) on the same axis. *)

type point = { cycles : float; model_gbps : float; simulated_gbps : float }

val sweep : ?points:int -> ?quick:bool -> unit -> point list
(** Busy-wait sweep from C_none to ~20,000 cycles; [simulated_gbps]
    re-runs the stream simulation with the busy-wait added per packet
    and applies line-rate capping, so it can diverge from the model only
    where the line rate clips. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
(** One cell per evaluated mode; the analytic sweep is pure and lives
    in the reduce (DESIGN.md §10). *)
