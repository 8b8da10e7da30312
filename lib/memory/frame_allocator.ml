type t = {
  total : int;
  mutable bump : int;  (* next never-allocated pfn *)
  mutable free_list : int list;
  live : (int, unit) Hashtbl.t;
}

let create ~total_frames =
  if total_frames <= 0 then invalid_arg "Frame_allocator.create";
  { total = total_frames; bump = 0; free_list = []; live = Hashtbl.create 256 }

exception Exhausted

let alloc_exn t =
  match t.free_list with
  | pfn :: rest ->
      t.free_list <- rest;
      Hashtbl.replace t.live pfn ();
      Addr.of_pfn pfn
  | [] ->
      if t.bump >= t.total then raise Exhausted;
      let pfn = t.bump in
      t.bump <- t.bump + 1;
      Hashtbl.replace t.live pfn ();
      Addr.of_pfn pfn

let alloc_contiguous t ~frames =
  if frames <= 0 then invalid_arg "Frame_allocator.alloc_contiguous";
  if t.bump + frames > t.total then None
  else begin
    let first = t.bump in
    t.bump <- t.bump + frames;
    for pfn = first to first + frames - 1 do
      Hashtbl.replace t.live pfn ()
    done;
    Some (Addr.of_pfn first)
  end

let free t addr =
  if not (Addr.is_page_aligned addr) then
    invalid_arg "Frame_allocator.free: not page aligned";
  let pfn = Addr.pfn addr in
  if not (Hashtbl.mem t.live pfn) then
    invalid_arg "Frame_allocator.free: frame not allocated";
  Hashtbl.remove t.live pfn;
  t.free_list <- pfn :: t.free_list

let allocated t = Hashtbl.length t.live
let total t = t.total
