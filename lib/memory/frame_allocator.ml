(* The live set is one bit per frame plus a count: a shard's 17,408
   frames take 2.2 KiB. *)
type t = {
  total : int;
  mutable bump : int;  (* next never-allocated pfn *)
  mutable free_list : int list;
  live : Bytes.t;  (* bit [pfn] set while frame [pfn] is allocated *)
  mutable allocated : int;
}

let create ~total_frames =
  if total_frames <= 0 then invalid_arg "Frame_allocator.create";
  {
    total = total_frames;
    bump = 0;
    free_list = [];
    live = Bytes.make ((total_frames + 7) / 8) '\000';
    allocated = 0;
  }

exception Exhausted

(* Callers keep [pfn] in [0, total). *)
let is_live t pfn =
  Char.code (Bytes.unsafe_get t.live (pfn lsr 3)) land (1 lsl (pfn land 7))
  <> 0

let flip t pfn =
  let i = pfn lsr 3 in
  let byte = Char.code (Bytes.unsafe_get t.live i) in
  Bytes.unsafe_set t.live i (Char.unsafe_chr (byte lxor (1 lsl (pfn land 7))))

let mark_live t pfn =
  flip t pfn;
  t.allocated <- t.allocated + 1

let alloc_exn t =
  match t.free_list with
  | pfn :: rest ->
      t.free_list <- rest;
      mark_live t pfn;
      Addr.of_pfn pfn
  | [] ->
      if t.bump >= t.total then raise Exhausted;
      let pfn = t.bump in
      t.bump <- t.bump + 1;
      mark_live t pfn;
      Addr.of_pfn pfn

let alloc_contiguous t ~frames =
  if frames <= 0 then invalid_arg "Frame_allocator.alloc_contiguous";
  if t.bump + frames > t.total then None
  else begin
    let first = t.bump in
    t.bump <- t.bump + frames;
    for pfn = first to first + frames - 1 do
      mark_live t pfn
    done;
    Some (Addr.of_pfn first)
  end

let free t addr =
  if not (Addr.is_page_aligned addr) then
    invalid_arg "Frame_allocator.free: not page aligned";
  let pfn = Addr.pfn addr in
  if pfn >= t.total || not (is_live t pfn) then
    invalid_arg "Frame_allocator.free: frame not allocated";
  flip t pfn;
  t.allocated <- t.allocated - 1;
  t.free_list <- pfn :: t.free_list

let allocated t = t.allocated
