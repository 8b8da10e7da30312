module Addr = Rio_memory.Addr
module Dma_buffer = Rio_memory.Dma_buffer
module Phys_mem = Rio_memory.Phys_mem
module Rng = Rio_sim.Rng
module Rpte = Rio_core.Rpte
module Dma_api = Rio_protect.Dma_api
module Ring = Rio_ring.Ring

let rx_ring_id = 0
let tx_ring_id = 1

let ring_sizes profile =
  [
    profile.Nic_profiles.rx_ring + 1;
    (profile.Nic_profiles.tx_ring * profile.Nic_profiles.bufs_per_packet) + 1;
  ]

(* One mapped target buffer: its descriptor address plus the frames to
   return when the packet retires. *)
type mapped_buf = {
  addr : int;
  buf : Dma_buffer.t;
  bytes : int;
  phys : Addr.phys;  (* mapped start (kmalloc offset included) *)
}

type tx_packet = { bufs : mapped_buf list; payload_len : int }

type rx_slot = { mb : mapped_buf; mutable filled : int }

type t = {
  profile : Nic_profiles.t;
  api : Dma_api.t;
  mem : Phys_mem.t;
  rng : Rng.t;
  data_movement : bool;
  tx_ring : tx_packet Ring.t;
  tx_done : tx_packet Queue.t;
  rx_ring : rx_slot Ring.t;
  rx_done : rx_slot Queue.t;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable faults : int;
}

let create ?(data_movement = true) ~profile ~api ~mem ~rng () =
  {
    profile;
    api;
    mem;
    rng;
    data_movement;
    tx_ring = Ring.create ~size:(profile.Nic_profiles.tx_ring + 1);
    tx_done = Queue.create ();
    rx_ring = Ring.create ~size:(profile.Nic_profiles.rx_ring + 1);
    rx_done = Queue.create ();
    tx_packets = 0;
    rx_packets = 0;
    faults = 0;
  }


(* kmalloc'd buffers (packet headers, linear skb data, Rx buffers) start
   at arbitrary page offsets, so a 1,500-byte buffer spans two pages about
   a third of the time; page-backed fragments (TSO/frag pages) are
   page-aligned. The resulting mix of 1- and 2-page IOVA allocations is
   what Linux really issues - and what drives the baseline allocator's
   pathology (see rio_iova). *)
let alloc_and_map t ~ring ~bytes ~dir ~kmalloc =
  let offset = if kmalloc then Rng.int t.rng Addr.page_size else 0 in
  match Dma_buffer.alloc (Dma_api.frames t.api) ~size:(bytes + offset) with
  | None -> None
  | Some buf -> (
      let phys = Addr.add buf.Dma_buffer.base offset in
      match Dma_api.map_exn t.api ~ring ~phys ~bytes ~dir with
      | addr -> Some { addr; buf; bytes; phys }
      | exception (Rio_domain.Driver.Exhausted | Rio_core.Driver.Overflow) ->
          Dma_buffer.free (Dma_api.frames t.api) buf;
          None)

let unmap_and_free t mb ~end_of_burst =
  (try Dma_api.unmap_exn t.api ~iova:mb.addr ~end_of_burst
   with Rio_iommu.Fault.Not_mapped -> invalid_arg "Nic: buffer was not mapped");
  Dma_buffer.free (Dma_api.frames t.api) mb.buf

(* {1 Transmit} *)

let data_buf_bytes t =
  let p = t.profile in
  Addr.page_size
  * Rng.int_in t.rng p.Nic_profiles.data_pages_min p.Nic_profiles.data_pages_max

let tx_submit t ~payload =
  if Ring.is_full t.tx_ring then Error `Ring_full
  else begin
    let p = t.profile in
    let bufs =
      if p.Nic_profiles.bufs_per_packet = 2 then begin
        match
          ( alloc_and_map t ~ring:tx_ring_id ~bytes:p.Nic_profiles.header_bytes
              ~dir:Rpte.From_memory ~kmalloc:true,
            alloc_and_map t ~ring:tx_ring_id ~bytes:(data_buf_bytes t)
              ~dir:Rpte.From_memory ~kmalloc:false )
        with
        | Some h, Some d -> Some [ h; d ]
        | Some h, None ->
            unmap_and_free t h ~end_of_burst:true;
            None
        | None, Some d ->
            unmap_and_free t d ~end_of_burst:true;
            None
        | None, None -> None
      end
      else begin
        match
          alloc_and_map t ~ring:tx_ring_id ~bytes:(data_buf_bytes t)
            ~dir:Rpte.From_memory ~kmalloc:true
        with
        | Some d -> Some [ d ]
        | None -> None
      end
    in
    match bufs with
    | None -> Error `Map_failed
    | Some bufs ->
        (* the CPU fills the buffers before handing them to the device *)
        if t.data_movement then begin
          let data_mb = List.nth bufs (List.length bufs - 1) in
          Phys_mem.write t.mem data_mb.phys payload
        end;
        (match Ring.post t.tx_ring { bufs; payload_len = Bytes.length payload } with
        | Ok _ -> ()
        | Error `Full -> assert false);
        Ok ()
  end

let device_tx_process t ~max =
  let processed = ref 0 in
  let continue = ref true in
  while !continue && !processed < max do
    match Ring.consume t.tx_ring with
    | None -> continue := false
    | Some pkt ->
        (* the device fetches each target buffer through translation *)
        List.iter
          (fun mb ->
            if t.data_movement then begin
              match
                Dma.read_from_memory ~api:t.api ~mem:t.mem
                  ~addr:mb.addr
                  ~len:(min mb.bytes pkt.payload_len)
              with
              | Ok _ -> ()
              | Error _ -> t.faults <- t.faults + 1
            end
            else begin
              match Dma_api.translate_exn t.api ~iova:mb.addr ~write:false with
              | (_ : Addr.phys) -> ()
              | exception Rio_iommu.Fault.Translation_fault -> t.faults <- t.faults + 1
            end)
          pkt.bufs;
        Queue.add pkt t.tx_done;
        t.tx_packets <- t.tx_packets + 1;
        incr processed
  done;
  !processed

let tx_reclaim_next t ~end_of_burst =
  match Queue.take_opt t.tx_done with
  | None -> false
  | Some pkt ->
      let nbufs = List.length pkt.bufs in
      List.iteri
        (fun j mb -> unmap_and_free t mb ~end_of_burst:(end_of_burst && j = nbufs - 1))
        pkt.bufs;
      true

let tx_reclaim t =
  let n = Queue.length t.tx_done in
  for i = 1 to n do
    ignore (tx_reclaim_next t ~end_of_burst:(i = n))
  done;
  n

let tx_completed t = Queue.length t.tx_done

(* {1 Receive} *)

let rx_fill t =
  let added = ref 0 in
  let continue = ref true in
  while !continue && not (Ring.is_full t.rx_ring) do
    match
      alloc_and_map t ~ring:rx_ring_id ~bytes:t.profile.Nic_profiles.mtu
        ~dir:Rpte.To_memory ~kmalloc:true
    with
    | None -> continue := false
    | Some mb -> (
        match Ring.post t.rx_ring { mb; filled = 0 } with
        | Ok _ -> incr added
        | Error `Full ->
            unmap_and_free t mb ~end_of_burst:true;
            continue := false)
  done;
  !added

let device_rx_deliver t ~payload =
  match Ring.consume t.rx_ring with
  | None -> Error `No_buffer
  | Some slot ->
      let len = min (Bytes.length payload) slot.mb.bytes in
      let delivered =
        if t.data_movement then
          Result.is_ok
            (Dma.write_to_memory ~api:t.api ~mem:t.mem ~addr:slot.mb.addr
               ~data:(Bytes.sub payload 0 len))
        else begin
          match Dma_api.translate_exn t.api ~iova:slot.mb.addr ~write:true with
          | (_ : Addr.phys) -> true
          | exception Rio_iommu.Fault.Translation_fault -> false
        end
      in
      if delivered then begin
        slot.filled <- len;
        Queue.add slot t.rx_done;
        t.rx_packets <- t.rx_packets + 1;
        Ok ()
      end
      else begin
        t.faults <- t.faults + 1;
        Error `Fault
      end

let rx_reap_next t ~end_of_burst =
  match Queue.take_opt t.rx_done with
  | None -> None
  | Some slot ->
      (* unmap BEFORE touching the contents: "only after unmap is it safe
         for the driver to access the buffer" (§2.1, footnote 1) *)
      (try Dma_api.unmap_exn t.api ~iova:slot.mb.addr ~end_of_burst
       with Rio_iommu.Fault.Not_mapped -> invalid_arg "Nic.rx_reap: buffer was not mapped");
      let payload =
        if t.data_movement && slot.filled > 0 then
          Phys_mem.read t.mem slot.mb.phys slot.filled
        else Bytes.empty
      in
      Dma_buffer.free (Dma_api.frames t.api) slot.mb.buf;
      Some payload

let rx_reap t =
  let n = Queue.length t.rx_done in
  let out = ref [] in
  for i = 1 to n do
    match rx_reap_next t ~end_of_burst:(i = n) with
    | Some payload -> out := payload :: !out
    | None -> ()
  done;
  List.rev !out

let rx_pending t = Queue.length t.rx_done

(* {1 Stats} *)

let tx_packets t = t.tx_packets
let rx_packets t = t.rx_packets
let dma_faults t = t.faults
