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
val record_map : t -> cycles:int -> ring:int -> addr:int -> bytes:int -> unit
val record_unmap : t -> cycles:int -> addr:int -> unit

val record_access :
  t -> cycles:int -> addr:int -> offset:int -> write:bool -> ok:bool -> unit
(** Append one entry, stamped [cycles] and numbered in record order.
    One function per op kind so a caller passes plain ints and bools:
    the entry is built here, off the caller's allocation-free path. *)

val length : t -> int
val entries : t -> entry list
(** In record order. *)

val iter : t -> (entry -> unit) -> unit

val to_csv : t -> string
(** "seq,cycles,op,addr,arg1,arg2" rows with a header line; the two
    args are ring and bytes for a map, 0 and 0 for an unmap, offset and
    ok (1 or 0) for a read or write. *)

val of_csv : string -> (t, string) result
(** Inverse of {!to_csv}; the error names the offending line. *)
