(** Common shape of a reproduced experiment. *)

type t = {
  id : string;  (** e.g. "table1" *)
  title : string;
  body : string;  (** rendered tables *)
  notes : string list;  (** caveats, calibration notes *)
}

val render : t -> string
(** Header, body, and notes, ready to print. *)

(** {1 The cell/reduce contract (DESIGN.md §10)}

    Every experiment exposes its measurement grid as a flat array of
    independent cells - pure thunks, each a function only of the
    experiment's configuration and its seed-derived RNG stream - plus a
    deterministic reduce that consumes the results {e indexed by cell
    position}, never by completion order. {!run_plans} may
    therefore schedule the cells on a domain pool in any interleaving
    and still render a byte-identical artifact. *)

type plan =
  | Plan : {
      cells : (unit -> 'a) array;
      reduce : 'a array -> t;
    }
      -> plan

val plan_of_list : (unit -> 'a) list -> reduce:('a list -> t) -> plan
(** List-flavored constructor; the reduce sees results in cell order. *)

val run_plans : ?jobs:int -> (string * plan) list -> (string * t) list
(** Flatten several plans into one task list scheduled by a single
    pool (the CLI's [run] and [run --all]): cells from different
    experiments interleave freely, reduces run afterwards in plan
    order. *)
