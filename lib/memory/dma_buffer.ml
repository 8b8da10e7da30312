type t = { base : Addr.phys; size : int; mutable pinned : bool }

let frames_for size = (size + Addr.page_size - 1) / Addr.page_size

let alloc fa ~size =
  if size <= 0 then invalid_arg "Dma_buffer.alloc: size";
  let n = frames_for size in
  let base =
    if n = 1 then (
      match Frame_allocator.alloc_exn fa with
      | frame -> Some frame
      | exception Frame_allocator.Exhausted -> None)
    else Frame_allocator.alloc_contiguous fa ~frames:n
  in
  match base with
  | None -> None
  | Some base -> Some { base; size; pinned = true }

let alloc_sub_page fa ~offsets ~size =
  if size <= 0 then invalid_arg "Dma_buffer.alloc_sub_page: size";
  let sorted = List.sort compare offsets in
  let rec disjoint = function
    | a :: (b :: _ as rest) -> a + size <= b && disjoint rest
    | [ last ] -> last + size <= Addr.page_size
    | [] -> true
  in
  if List.exists (fun o -> o < 0) sorted || not (disjoint sorted) then
    invalid_arg "Dma_buffer.alloc_sub_page: overlapping or out of page";
  match Frame_allocator.alloc_exn fa with
  | exception Frame_allocator.Exhausted -> None
  | frame ->
      Some
        (List.map
           (fun off -> { base = Addr.add frame off; size; pinned = true })
           offsets)

let free fa t =
  t.pinned <- false;
  let n = frames_for t.size in
  for i = 0 to n - 1 do
    Frame_allocator.free fa (Addr.add t.base (i * Addr.page_size))
  done
