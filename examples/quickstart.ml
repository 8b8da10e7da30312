(* Quickstart: protect a DMA buffer with the rIOMMU.

   Walks the whole life of one receive buffer: map it into a ring's flat
   table, let the device DMA a packet into it through address
   translation, read the payload back, unmap - and watch the device
   fault when it tries to touch the buffer afterwards.

   Run with: dune exec examples/quickstart.exe *)

module Addr = Rio_memory.Addr
module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Dma = Rio_device.Dma

let () =
  (* A protection context in coherent-rIOMMU mode: one device (rid
     0x0300) with two flat tables of 512 rPTEs. *)
  let api = Dma_api.create (Dma_api.default_config ~mode:Mode.Riommu) in
  let mem = Rio_memory.Phys_mem.create () in

  (* 1. The driver allocates a 1500-byte target buffer... *)
  let buf =
    Option.get (Rio_memory.Dma_buffer.alloc (Dma_api.frames api) ~size:1500)
  in
  Printf.printf "buffer at physical %s, 1500 bytes\n"
    (Format.asprintf "%a" Addr.pp buf.Rio_memory.Dma_buffer.base);

  (* 2. ...maps it for receive into ring 0 (two integer updates plus one
     rPTE write - compare Figure 11 of the paper)... *)
  let iova =
    Dma_api.map_exn api ~ring:0 ~phys:buf.Rio_memory.Dma_buffer.base ~bytes:1500
      ~dir:Rio_core.Rpte.To_memory
  in
  Printf.printf "mapped as rIOVA %x (ring 0, entry 0)\n" iova;

  (* 3. The device receives a packet: the rIOMMU translates the rIOVA
     and the payload lands in the buffer. *)
  let payload = Bytes.of_string "hello from the wire" in
  (match Dma.write_to_memory ~api ~mem ~addr:iova ~data:payload with
  | Ok () -> print_endline "device DMA succeeded through rtranslate"
  | Error e -> failwith e);

  (* 4. The driver unmaps FIRST (only then is it safe to read), ending
     the burst so the rIOTLB entry is invalidated... *)
  Dma_api.unmap_exn api ~iova ~end_of_burst:true;
  let received =
    Rio_memory.Phys_mem.read mem buf.Rio_memory.Dma_buffer.base
      (Bytes.length payload)
  in
  Printf.printf "driver read back: %S\n" (Bytes.to_string received);

  (* 5. ...and any further device access faults. *)
  (match Dma_api.translate_exn api ~iova ~write:true with
  | exception Rio_iommu.Fault.Translation_fault ->
      Printf.printf "late device access correctly faults: %s\n" (Dma_api.last_fault api)
  | (_ : Addr.phys) -> failwith "protection hole!");

  (* The whole exchange cost this many simulated core cycles in the
     map/unmap path: *)
  Printf.printf "driver-side protection cost: %d cycles\n"
    (Dma_api.driver_cycles api)
