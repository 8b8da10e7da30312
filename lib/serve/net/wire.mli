(** riommu-wire/1: length-prefixed binary framing for the socket
    transport.

    {2 Frame layout}

    Every frame is a little-endian [u32] body length followed by the
    body. A request body is an 8-byte header — [u8] magic [0xA7],
    [u8] op, [u16] tenant, [u32] req_id — then an op-specific payload:

    {v
    map       phys u64, bytes u32                        (12 bytes)
    unmap     iova u64                                    (8 bytes)
    map_sg    nseg u16, nseg x (phys u64, bytes u32)  (2 + 12n bytes)
    translate iova u64, write u8                          (9 bytes)
    stats     (empty)
    v}

    A response body is an 8-byte header — magic, op echo, status,
    reserved, [u32] req_id — then a payload only when [status = ok]:
    map returns the [u64] iova, translate the [u64] phys, map_sg
    [nseg u16] plus [nseg] [u64] iovas, stats five [u64] counters.
    Responses correlate by [req_id] and may be reordered relative to
    their requests (the shard-affinity dispatcher flushes per-shard
    batches, not per-connection queues).

    Before any frame, a client sends a 16-byte hello:
    ["RIOWIRE1"], [u32] bdf, [u32] flags.

    {2 Calling convention}

    Decode and encode are allocation-free: requests decode into a
    preallocated mutable {!req} (responses into a {!resp}), integers
    travel through one load or store per field ({!get_u64} and its
    siblings, converted in place so no [Int32]/[Int64] is boxed), and
    decoders return a plain [int]: positive = bytes
    consumed, [0] = need more input, negative = {!error_of_code}.
    Wire [u64]s carry 62-bit values (the top bits are masked), which
    covers every address and counter in the system. *)

val magic : int
val hello_bytes : int

(** {1 Field accessors}

    Little-endian, one bounds-checked load or store each; an access
    that runs past the buffer raises [Invalid_argument "index out of
    bounds"]. *)

val get_u32 : Bytes.t -> int -> int
(** The unsigned 32-bit field at the position. *)

val set_u32 : Bytes.t -> int -> int -> unit
(** Store the low 32 bits of the value. *)

val get_u64 : Bytes.t -> int -> int
(** The 64-bit field at the position with its top two bits ignored:
    a value in [\[0, 2^62)]. *)

val set_u64 : Bytes.t -> int -> int -> unit
(** Store the low 62 bits of the value, the top two wire bits zero. *)

val len_bytes : int
val header_bytes : int

val stats_payload_bytes : int
(** Stats-response payload: five u64 counters (ops, requests, conns,
    protocol errors, faults). *)

(** {1 Op and status codes} *)

val op_map : int
val op_unmap : int
val op_map_sg : int
val op_translate : int
val op_stats : int
val st_ok : int
val st_exhausted : int
val st_not_mapped : int
val st_fault : int
val st_bad_request : int

(** {1 Protocol errors} *)

type error = Bad_magic | Bad_op | Bad_length | Oversized | Bad_segs | Bad_hello

val error_code : error -> int
(** Strictly negative; stable across releases of the protocol. *)

val error_of_code : int -> error
(** Inverse of {!error_code}; raises [Invalid_argument] on anything
    non-negative or unknown. *)

val error_name : error -> string

(** {1 Sizing} *)

val max_body : sg_limit:int -> int
val max_request_bytes : sg_limit:int -> int
(** Largest legal request frame (a full-width map_sg), length word
    included — the decoder rejects longer claims as [Oversized]
    {e before} waiting for their bytes, so a hostile length cannot
    stall a connection. *)

val max_response_bytes : sg_limit:int -> int
(** Largest response frame; the connection write buffer reserves this
    much per in-flight request so encoding a response can never fail
    mid-batch. *)

(** {1 Requests} *)

type req = {
  mutable op : int;
  mutable tenant : int;
  mutable req_id : int;
  mutable phys : int;
  mutable bytes : int;
  mutable iova : int;
  mutable write : bool;
  mutable nseg : int;
  seg_phys : int array;
  seg_bytes : int array;
}
(** One decoded request, reused across frames. Only the fields of the
    decoded [op] are meaningful after a decode. *)

val create_req : sg_limit:int -> req
val sg_limit : req -> int

val decode_request : Bytes.t -> pos:int -> avail:int -> req -> int
(** [> 0] consumed bytes (fields of [req] valid), [0] incomplete
    (nothing written), [< 0] {!error_code}. Allocation-free. *)

val encode_map :
  Bytes.t -> pos:int -> tenant:int -> req_id:int -> phys:int -> bytes:int -> int

val encode_unmap : Bytes.t -> pos:int -> tenant:int -> req_id:int -> iova:int -> int

val encode_map_sg :
  Bytes.t ->
  pos:int ->
  tenant:int ->
  req_id:int ->
  seg_phys:int array ->
  seg_bytes:int array ->
  n:int ->
  int

val encode_translate :
  Bytes.t -> pos:int -> tenant:int -> req_id:int -> iova:int -> write:bool -> int

val encode_stats : Bytes.t -> pos:int -> tenant:int -> req_id:int -> int

(** {1 Hello} *)

val encode_hello : Bytes.t -> pos:int -> bdf:int -> flags:int -> int

val decode_hello : Bytes.t -> pos:int -> avail:int -> int
(** [hello_bytes] on success, [0] incomplete, [error_code Bad_hello]
    on a magic mismatch. *)

val hello_bdf : Bytes.t -> pos:int -> int
(** Only valid right after a successful {!decode_hello} at [pos]. *)

(** {1 Responses} *)

val encode_map_ok : Bytes.t -> pos:int -> req_id:int -> iova:int -> int
val encode_unmap_ok : Bytes.t -> pos:int -> req_id:int -> int
val encode_translate_ok : Bytes.t -> pos:int -> req_id:int -> phys:int -> int

val encode_map_sg_ok :
  Bytes.t -> pos:int -> req_id:int -> iovas:int array -> n:int -> int

val encode_stats_ok :
  Bytes.t ->
  pos:int ->
  req_id:int ->
  ops:int ->
  requests:int ->
  conns:int ->
  errors:int ->
  faults:int ->
  int

val encode_error : Bytes.t -> pos:int -> op:int -> status:int -> req_id:int -> int
(** Payload-less response carrying a non-ok status. *)

type resp = {
  mutable r_op : int;
  mutable status : int;
  mutable r_req_id : int;
  mutable r_iova : int;
  mutable r_phys : int;
  mutable r_nseg : int;
  r_iovas : int array;
  mutable s_ops : int;
  mutable s_requests : int;
  mutable s_conns : int;
  mutable s_errors : int;
  mutable s_faults : int;
}

val create_resp : sg_limit:int -> resp

val decode_response : Bytes.t -> pos:int -> avail:int -> resp -> int
(** Client-side mirror of {!decode_request}; same return convention. *)
