type t = { pfn : int; read : bool; write : bool }

let make ?(read = true) ?(write = true) ~pfn () =
  if pfn < 0 then invalid_arg "Pte.make: pfn";
  { pfn; read; write }

let frame t = Rio_memory.Addr.of_pfn t.pfn
let permits t ~write = if write then t.write else t.read

let encode t =
  let open Int64 in
  let bits = shift_left (of_int t.pfn) 12 in
  let bits = if t.read then logor bits 1L else bits in
  if t.write then logor bits 2L else bits

let decode bits =
  let open Int64 in
  let read = logand bits 1L <> 0L in
  let write = logand bits 2L <> 0L in
  if (not read) && not write then None
  else
    Some { pfn = to_int (shift_right_logical bits 12); read; write }

(* Packed immediate representation for the flat arena table and the
   IOTLB payload: PFN in bits 2.., W in bit 1, R in bit 0. Always
   non-negative, so -1 ([packed_none]) is free as an absence sentinel. *)

let packed_none = -1

let pack t =
  (t.pfn lsl 2) lor (if t.write then 2 else 0) lor (if t.read then 1 else 0)

let pack_make ~read ~write ~pfn =
  if pfn < 0 then invalid_arg "Pte.pack_make: pfn";
  (pfn lsl 2) lor (if write then 2 else 0) lor (if read then 1 else 0)

let packed_pfn p = p lsr 2
let packed_frame p = Rio_memory.Addr.of_pfn (p lsr 2)
let packed_permits p ~write = if write then p land 2 <> 0 else p land 1 <> 0

let equal a b = a.pfn = b.pfn && a.read = b.read && a.write = b.write

let pp fmt t =
  Format.fprintf fmt "pfn:%#x%s%s" t.pfn
    (if t.read then " R" else "")
    (if t.write then " W" else "")
