(* Packed immediate representation for the flat arena table and the
   IOTLB payload: PFN in bits 2.., W in bit 1, R in bit 0. Always
   non-negative, so -1 ([packed_none]) is free as an absence sentinel. *)

let packed_none = -1

let pack_make ~read ~write ~pfn =
  if pfn < 0 then invalid_arg "Pte.pack_make: pfn";
  (pfn lsl 2) lor (if write then 2 else 0) lor (if read then 1 else 0)

let packed_frame p = Rio_memory.Addr.of_pfn (p lsr 2)
let packed_permits p ~write = if write then p land 2 <> 0 else p land 1 <> 0
