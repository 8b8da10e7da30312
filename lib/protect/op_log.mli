(** DMA operation logging.

    The paper generated its §5.4 traces by logging the DMAs of emulated
    devices; attaching an {!t} to a {!Dma_api.t} does the same here:
    every map, unmap, and device-side translation is recorded with its
    simulated cycle timestamp. Logs export to CSV and replay into the
    prefetcher evaluation. *)

type op =
  | Map of { ring : int; addr : int; bytes : int }
  | Unmap of { addr : int }
  | Access of { addr : int; offset : int; write : bool; ok : bool }

type entry = { seq : int; cycles : int; op : op }

type t

val create : unit -> t
val record : t -> cycles:int -> op -> unit
val length : t -> int
val entries : t -> entry list
(** In record order. *)

val iter : t -> (entry -> unit) -> unit
val clear : t -> unit

val to_csv : t -> string
(** "seq,cycles,op,addr,arg" rows with a header line; [arg] is
    ring/bytes for maps, offset for accesses. *)

val of_csv : string -> (t, string) result
(** Inverse of {!to_csv}; the error names the offending line. *)
