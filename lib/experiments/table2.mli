(** Table 2: normalized performance - the rIOMMU variants' throughput
    and CPU divided by each other mode's, compared cell by cell against
    the paper's published ratios. *)

val ratios :
  ?quick:bool ->
  ?seed:int ->
  Rio_report.Paper.nic ->
  Rio_report.Paper.benchmark ->
  riommu:Rio_protect.Mode.t ->
  vs:Rio_protect.Mode.t ->
  float * float
(** (throughput ratio, cpu ratio) measured. *)

val plan : ?quick:bool -> ?seed:int -> unit -> Exp.plan
(** The cells are {!Figure12.row_cells} (shared memo), the reduce
    computes the ratio blocks. *)
