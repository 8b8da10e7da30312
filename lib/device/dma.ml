module Addr = Rio_memory.Addr
module Phys_mem = Rio_memory.Phys_mem
module Dma_api = Rio_protect.Dma_api
module Riova = Rio_core.Riova
module Hw = Rio_core.Hw

(* Drive [f phys chunk_offset chunk_len] over page-contiguous chunks of
   the transfer. Both ends of every chunk are translated: a transfer is
   made of multiple bus transactions, so a burst that starts inside a
   valid window but runs past its end (an rPTE's byte-granular size, or
   an unmapped next page) faults partway through, like a real master
   abort. This is the one place that adds offsets to a descriptor
   address: under the rIOMMU, a transfer whose last byte would carry out
   of the rIOVA's 30-bit offset field (and so name another ring entry)
   is the offset fault, refused before any translation. *)
let chunked ~api ~addr ~len ~write f =
  let rec go off =
    if off >= len then Ok ()
    else begin
      match Dma_api.translate_exn api ~iova:(addr + off) ~write with
      | exception Rio_iommu.Fault.Translation_fault -> Error (Dma_api.last_fault api)
      | phys -> (
          let span = min (len - off) (Addr.page_size - Addr.page_offset phys) in
          match Dma_api.translate_exn api ~iova:(addr + off + span - 1) ~write with
          | exception Rio_iommu.Fault.Translation_fault -> Error (Dma_api.last_fault api)
          | (_ : Addr.phys) ->
              f phys off span;
              go (off + span))
    end
  in
  if
    Rio_protect.Mode.is_riommu (Dma_api.mode api)
    && Riova.offset addr + len > 1 lsl Riova.offset_bits
  then Error (Format.asprintf "%a" Hw.pp_fault Hw.Offset_out_of_range)
  else go 0

let write_to_memory ~api ~mem ~addr ~data =
  chunked ~api ~addr ~len:(Bytes.length data) ~write:true (fun phys off span ->
      Phys_mem.write mem phys (Bytes.sub data off span))

let read_from_memory ~api ~mem ~addr ~len =
  let out = Bytes.create len in
  match
    chunked ~api ~addr ~len ~write:false (fun phys off span ->
        Bytes.blit (Phys_mem.read mem phys span) 0 out off span)
  with
  | Ok () -> Ok out
  | Error e -> Error e
