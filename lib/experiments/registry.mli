(** Experiment registry: every reproduced table and figure by id. *)

type planner = ?quick:bool -> ?seed:int -> unit -> Exp.plan

val all : (string * planner) list
(** In the paper's order: table1, figure7, figure8, figure12, table2,
    table3, iotlb_miss, prefetchers, bonnie - plus the design-choice
    ablations and the multi-tenant interference experiment. Run a
    selection with {!Exp.run_plans} (the CLI's [run]). *)

val find : string -> planner option
val ids : string list

val unknown_id_message : string -> string
(** Error text for an unrecognized experiment id: names the id and
    lists every valid one. *)
