(* Attack demo: what each protection mode actually stops.

   Three attack scenarios from the paper, staged against real
   translation machinery:

   1. An errant DMA to an address that was never mapped.
   2. A use-after-unmap: the device re-reads a buffer the driver already
      unmapped (the deferred mode's vulnerability window, §3.2).
   3. A same-page overreach: two sub-page buffers share a physical page;
      the device overreaches from its still-mapped buffer into its
      neighbour (§4 - page-granular protection cannot stop this, the
      byte-granular rIOMMU can).

   Run with: dune exec examples/attack_demo.exe *)

module Addr = Rio_memory.Addr
module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Rpte = Rio_core.Rpte

(* One device access, as the (r)IOMMU sees it: the descriptor address
   plus the byte offset the device reaches for. *)
let outcome api label ~iova =
  match Dma_api.translate_exn api ~iova ~write:true with
  | (_ : Addr.phys) -> Printf.printf "    %-38s DMA SUCCEEDED (vulnerable)\n" label
  | exception Rio_iommu.Fault.Translation_fault ->
      Printf.printf "    %-38s blocked: %s\n" label (Dma_api.last_fault api)

let scenario mode =
  Printf.printf "%s:\n" (Mode.name mode);
  let api = Dma_api.create (Dma_api.default_config ~mode) in
  let frames = Dma_api.frames api in

  (* 1. never-mapped address *)
  let wild =
    match mode with
    | Mode.Riommu | Mode.Riommu_minus ->
        (Rio_core.Riova.pack ~offset:0 ~rentry:7 ~rid:0 :> int)
    | _ -> 0x7000
  in
  outcome api "errant DMA to unmapped address" ~iova:wild;

  (* 2. use-after-unmap *)
  let buf = Rio_memory.Frame_allocator.alloc_exn frames in
  let iova = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional in
  ignore (Dma_api.translate_exn api ~iova ~write:true : Addr.phys);
  Dma_api.unmap_exn api ~iova ~end_of_burst:true;
  outcome api "use-after-unmap" ~iova;

  (* 3. same-page overreach: buffer A [0,1500) and B [2048,3548) share a
     page; only B stays mapped; the device reaches for A's bytes through
     B's mapping at offset (A - B) or beyond B's extent. *)
  let bufs =
    Option.get
      (Rio_memory.Dma_buffer.alloc_sub_page frames ~offsets:[ 0; 2048 ] ~size:1500)
  in
  (match bufs with
  | [ _a; b ] ->
      let addr_b =
        Dma_api.map_exn api ~ring:0 ~phys:b.Rio_memory.Dma_buffer.base ~bytes:1500
          ~dir:Rpte.Bidirectional
      in
      (* reaching 2 KB past B's start lands in the page's tail; reaching
         -2048 (via the page base under the baseline) lands in A *)
      let overreach =
        match mode with
        | Mode.Riommu | Mode.Riommu_minus -> addr_b + 2000
        | _ ->
            (* baseline IOVAs are page-granular: the device can address
               the page base, i.e. buffer A's first byte *)
            addr_b land lnot 0xFFF
      in
      outcome api "same-page overreach into neighbour" ~iova:overreach
  | _ -> assert false);
  print_newline ()

let () =
  List.iter scenario
    [ Mode.None_; Mode.Strict; Mode.Defer; Mode.Riommu ];
  print_endline
    "none protects nothing; strict stops 1 and 2 but not the same-page\n\
     overreach (page granularity); defer leaves the use-after-unmap\n\
     window open until its batched flush; the rIOMMU stops all three."
