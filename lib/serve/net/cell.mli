(** Lane layout of the fixed-width integer cells that the op body
    ({!Executor.exec}) reads and writes, and that the {!Spsc} rings
    carry between the IO domain and shard executors.

    A {e request cell} is one dispatch-batch slot ({!Dispatch} stores
    its batches in this layout) plus routing (connection slot, shard
    index); a {e response cell} is everything {!Dispatch.complete}
    needs to encode the wire response into the owning connection's
    write buffer. Both are plain [int] lanes so
    the cross-domain hand-off moves no OCaml blocks — scatter-gather
    segments ride in [sg_limit]-sized lane groups sized at ring
    creation. *)

val req_width : sg_limit:int -> int
val rsp_width : sg_limit:int -> int

(** {1 Request lanes} *)

val q_slot : int
(** Connection slot (the loop's token for the conn), stamped when the
    cell is copied onto a ring. *)

val q_shard : int
(** Global shard index; the executor indexes its shard array with
    this. *)

val q_op : int
val q_tenant : int
(** Domain slot on the owning shard (already resolved by dispatch). *)

val q_req_id : int
val q_a : int
(** phys (map) / iova (unmap, translate). *)

val q_b : int
(** bytes (map) / write flag (translate). *)

val q_nseg : int
(** Segment count; set for map_sg only. *)

val q_segs : int
(** First of [2 * sg_limit] segment lanes: phys in
    [q_segs .. q_segs + sg_limit), bytes in the next [sg_limit]. *)

(** {1 Response lanes} *)

val r_slot : int
val r_op : int
val r_status : int
(** A [Wire.st_*] code; payload lanes are meaningful only under
    [st_ok]. *)

val r_req_id : int
val r_value : int
(** phys (translate ok) / iova (map ok). *)

val r_nseg : int
val r_iovas : int
(** First of [sg_limit] iova lanes (map_sg ok). *)
