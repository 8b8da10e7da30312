(** Figure 12: throughput and CPU for both NICs, five benchmarks, seven
    modes.

    [compute] runs the full measurement grid (memoized per (quick,
    seed, NIC) - domain-safely, so parallel cells share rows): the
    netperf stream simulation per (NIC, mode) provides the measured
    per-packet protection cost, from which stream/apache/memcached
    throughput and CPU follow via the §3.3 model; RR runs its own
    simulation. *)

type cell = { throughput : float; cpu : float; line_limited : bool }
(** [throughput] units depend on the benchmark: Gbps for stream,
    transactions/s for RR, requests/s for apache and memcached. *)

type mode_row = {
  mode : Rio_protect.Mode.t;
  protection_per_packet : float;
  cells : (Rio_report.Paper.benchmark * cell) list;
}

type grid = { nic : Rio_report.Paper.nic; rows : mode_row list }

val compute : ?quick:bool -> ?seed:int -> Rio_report.Paper.nic -> grid
(** [quick] shortens the simulations (for tests); default false.
    [seed] is the master seed the workload streams derive from. *)

val cell : grid -> Rio_protect.Mode.t -> Rio_report.Paper.benchmark -> cell
(** Raises [Not_found] for modes outside the evaluated seven. *)

val row_cells :
  quick:bool -> seed:int -> (unit -> mode_row) list
(** The 14 (NIC, mode) measurement cells, memo-backed; shared with
    table2's plan so the two experiments never measure a point twice. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
