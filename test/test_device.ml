(* Integration tests for the device models (rio_device): end-to-end DMA
   through every protection mode, NIC Rx/Tx with payload integrity,
   NVMe queue-pair discipline, and SATA arbitrary-order completion. *)

module Addr = Rio_memory.Addr
module Phys_mem = Rio_memory.Phys_mem
module Rng = Rio_sim.Rng
module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Rpte = Rio_core.Rpte
module Dma = Rio_device.Dma
module Nic = Rio_device.Nic
module Nic_profiles = Rio_device.Nic_profiles
module Nvme = Rio_device.Nvme
module Sata = Rio_device.Sata

(* {1 DMA engine} *)

let test_dma_roundtrip_cross_page () =
  let api = Dma_api.create (Dma_api.default_config ~mode:Mode.Riommu) in
  let mem = Phys_mem.create () in
  let buf =
    Option.get (Rio_memory.Dma_buffer.alloc (Dma_api.frames api) ~size:9000)
  in
  let addr =
    Dma_api.map_exn api ~ring:0 ~phys:buf.Rio_memory.Dma_buffer.base ~bytes:9000
      ~dir:Rpte.Bidirectional
  in
  let data = Bytes.init 9000 (fun i -> Char.chr (i land 0xff)) in
  Alcotest.(check bool) "write ok" true
    (Dma.write_to_memory ~api ~mem ~addr ~data = Ok ());
  (match Dma.read_from_memory ~api ~mem ~addr ~len:9000 with
  | Ok out -> Alcotest.(check bool) "data survives round trip" true (Bytes.equal out data)
  | Error e -> Alcotest.fail e)

let test_dma_fault_aborts () =
  let api = Dma_api.create (Dma_api.default_config ~mode:Mode.Riommu) in
  let mem = Phys_mem.create () in
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let addr = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:100 ~dir:Rpte.To_memory in
  (* writing 200 bytes overruns the 100-byte rPTE window: chunk 2 faults *)
  Alcotest.(check bool) "overrun faults" true
    (Result.is_error (Dma.write_to_memory ~api ~mem ~addr ~data:(Bytes.make 200 'z')))

(* The DMA engine is the one place that adds offsets to a descriptor
   address. Under the rIOMMU, a transfer whose last byte would carry out
   of the rIOVA's 30-bit offset field names another ring entry: it is
   the offset fault, refused before any translation, so the hardware
   counts no fault. A transfer that ends exactly at the field's top is
   translated (and faults on the rPTE's size instead). *)
let test_dma_offset_carry () =
  List.iter
    (fun mode ->
      let api = Dma_api.create (Dma_api.default_config ~mode) in
      let mem = Phys_mem.create () in
      let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
      let addr = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional in
      let top = (1 lsl Rio_core.Riova.offset_bits) - 8 in
      let name = Mode.name mode in
      Alcotest.(check bool) (name ^ ": write carrying out of the field") true
        (Dma.write_to_memory ~api ~mem ~addr:(addr + top) ~data:(Bytes.make 9 'x')
        = Error "offset out of range");
      Alcotest.(check bool) (name ^ ": read carrying out of the field") true
        (Dma.read_from_memory ~api ~mem ~addr:(addr + top) ~len:9
        = Error "offset out of range");
      Alcotest.(check int) (name ^ ": no hardware fault counted") 0 (Dma_api.faults api);
      Alcotest.(check bool) (name ^ ": a read up to the field's top translates") true
        (Result.is_error (Dma.read_from_memory ~api ~mem ~addr:(addr + top) ~len:8));
      Alcotest.(check int) (name ^ ": and faults in the hardware") 1 (Dma_api.faults api))
    [ Mode.Riommu; Mode.Riommu_minus ]

(* {1 NIC} *)

let make_nic ?(mode = Mode.Riommu) ?(profile = Nic_profiles.mlx) () =
  let profile = { profile with Nic_profiles.rx_ring = 32; tx_ring = 32 } in
  let api =
    Dma_api.create
      {
        (Dma_api.default_config ~mode) with
        Dma_api.ring_sizes = Nic.ring_sizes profile;
      }
  in
  let rng = Rng.create ~seed:1 in
  let mem = Phys_mem.create () in
  (Nic.create ~profile ~api ~mem ~rng (), api)

let test_nic_rx_payload_integrity () =
  let nic, _ = make_nic () in
  Alcotest.(check int) "ring filled" 32 (Nic.rx_fill nic);
  let payloads =
    List.init 5 (fun i -> Bytes.of_string (Printf.sprintf "packet-%d-payload" i))
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) "delivered" true (Nic.device_rx_deliver nic ~payload:p = Ok ()))
    payloads;
  let received = Nic.rx_reap nic in
  Alcotest.(check int) "all reaped" 5 (List.length received);
  List.iter2
    (fun sent got -> Alcotest.(check bytes) "payload intact" sent got)
    payloads received;
  Alcotest.(check int) "no faults" 0 (Nic.dma_faults nic)

let test_nic_tx_flow () =
  let nic, api = make_nic () in
  let payload = Bytes.make 1500 'q' in
  for _ = 1 to 10 do
    Alcotest.(check bool) "submitted" true (Nic.tx_submit nic ~payload = Ok ())
  done;
  Alcotest.(check int) "device processed" 10 (Nic.device_tx_process nic ~max:16);
  Alcotest.(check int) "completions pending" 10 (Nic.tx_completed nic);
  Alcotest.(check int) "reclaimed" 10 (Nic.tx_reclaim nic);
  Alcotest.(check int) "all unmapped" 0 (Dma_api.live_mappings api);
  Alcotest.(check int) "no faults" 0 (Nic.dma_faults nic)

let test_nic_tx_across_modes () =
  List.iter
    (fun mode ->
      let nic, _ = make_nic ~mode () in
      ignore (Nic.rx_fill nic);
      let payload = Bytes.make 1500 'm' in
      for _ = 1 to 40 do
        (match Nic.tx_submit nic ~payload with
        | Ok () -> ()
        | Error (`Ring_full | `Map_failed) -> ());
        ignore (Nic.device_tx_process nic ~max:4);
        ignore (Nic.tx_reclaim nic)
      done;
      Alcotest.(check int)
        (Printf.sprintf "%s: no faults" (Mode.name mode))
        0 (Nic.dma_faults nic))
    Mode.all

let test_nic_rx_underrun_drops () =
  let nic, _ = make_nic () in
  (* no rx_fill: the ring is empty *)
  Alcotest.(check bool) "drop" true
    (Nic.device_rx_deliver nic ~payload:(Bytes.make 10 'x') = Error `No_buffer)

let test_nic_ring_full () =
  let nic, _ = make_nic () in
  let payload = Bytes.make 100 'f' in
  let oks = ref 0 in
  (try
     for _ = 1 to 100 do
       match Nic.tx_submit nic ~payload with
       | Ok () -> incr oks
       | Error `Ring_full -> raise Exit
       | Error `Map_failed -> Alcotest.fail "map failed"
     done
   with Exit -> ());
  Alcotest.(check int) "capacity = ring size" 32 !oks

(* {1 NVMe} *)

let make_nvme ?(mode = Mode.Riommu) ~queues ~depth () =
  let api =
    Dma_api.create
      {
        (Dma_api.default_config ~mode) with
        Dma_api.ring_sizes = Nvme.ring_sizes ~queues ~depth;
        total_frames = 300_000;
      }
  in
  let mem = Phys_mem.create () in
  (Nvme.create ~queues ~depth ~api ~mem (), api)

let test_nvme_queue_discipline () =
  let nvme, api = make_nvme ~queues:2 ~depth:8 () in
  for q = 0 to 1 do
    for i = 1 to 4 do
      Alcotest.(check bool) "submit ok" true
        (Nvme.submit nvme ~queue:q ~bytes:(i * 4096) ~write:(i mod 2 = 0) = Ok ())
    done
  done;
  Alcotest.(check int) "q0 processed" 4 (Nvme.device_process nvme ~queue:0 ~max:8);
  Alcotest.(check int) "q0 reclaimed" 4 (Nvme.reclaim nvme ~queue:0);
  Alcotest.(check int) "q1 untouched" 4 (Nvme.device_process nvme ~queue:1 ~max:8);
  ignore (Nvme.reclaim nvme ~queue:1);
  Alcotest.(check int) "all unmapped" 0 (Dma_api.live_mappings api);
  Alcotest.(check int) "no faults" 0 (Nvme.faults nvme)

let test_nvme_queue_full () =
  let nvme, _ = make_nvme ~queues:1 ~depth:2 () in
  Alcotest.(check bool) "1" true (Nvme.submit nvme ~queue:0 ~bytes:4096 ~write:false = Ok ());
  Alcotest.(check bool) "2" true (Nvme.submit nvme ~queue:0 ~bytes:4096 ~write:false = Ok ());
  Alcotest.(check bool) "full" true
    (Nvme.submit nvme ~queue:0 ~bytes:4096 ~write:false = Error `Queue_full)

(* {1 SATA} *)

let make_sata ?(mode = Mode.Strict) () =
  let api =
    Dma_api.create
      {
        (Dma_api.default_config ~mode) with
        Dma_api.ring_sizes = [ Sata.slots + 1 ];
        total_frames = 300_000;
      }
  in
  let mem = Phys_mem.create () in
  let rng = Rng.create ~seed:2 in
  (Sata.create ~bandwidth_mbps:150. ~api ~mem ~rng (), api)

let test_sata_slots_and_completion () =
  let sata, api = make_sata () in
  let submitted = ref 0 in
  (try
     for _ = 1 to 100 do
       match Sata.submit sata ~bytes:65536 ~write:true with
       | Ok () -> incr submitted
       | Error `Busy -> raise Exit
       | Error `Map_failed -> Alcotest.fail "map failed"
     done
   with Exit -> ());
  Alcotest.(check int) "32 slots" Sata.slots !submitted;
  Alcotest.(check int) "completes out of order" Sata.slots
    (Sata.device_complete sata ~max:64);
  Alcotest.(check int) "reclaimed" Sata.slots (Sata.reclaim sata);
  Alcotest.(check int) "all unmapped" 0 (Dma_api.live_mappings api);
  Alcotest.(check bool) "disk time accrued" true (Sata.disk_cycles sata > 0);
  Alcotest.(check int) "no faults" 0 (Sata.faults sata)

let test_sata_disk_time_dominates () =
  let sata, api = make_sata () in
  for _ = 1 to 8 do
    ignore (Sata.submit sata ~bytes:65536 ~write:false)
  done;
  ignore (Sata.device_complete sata ~max:8);
  ignore (Sata.reclaim sata);
  (* 64KB at 150MB/s is ~437us = 1.3M cycles; even with strict-mode
     per-page invalidations the mapping work is an order smaller *)
  Alcotest.(check bool) "disk >> protection" true
    (Sata.disk_cycles sata > 10 * Dma_api.driver_cycles api)

let () =
  Alcotest.run "rio_device"
    [
      ( "dma",
        [
          Alcotest.test_case "round trip across pages" `Quick test_dma_roundtrip_cross_page;
          Alcotest.test_case "fault aborts transfer" `Quick test_dma_fault_aborts;
          Alcotest.test_case "offset carry is the offset fault" `Quick
            test_dma_offset_carry;
        ] );
      ( "nic",
        [
          Alcotest.test_case "rx payload integrity" `Quick test_nic_rx_payload_integrity;
          Alcotest.test_case "tx flow" `Quick test_nic_tx_flow;
          Alcotest.test_case "tx across all modes" `Quick test_nic_tx_across_modes;
          Alcotest.test_case "rx underrun drops" `Quick test_nic_rx_underrun_drops;
          Alcotest.test_case "tx ring capacity" `Quick test_nic_ring_full;
        ] );
      ( "nvme",
        [
          Alcotest.test_case "queue discipline" `Quick test_nvme_queue_discipline;
          Alcotest.test_case "queue full" `Quick test_nvme_queue_full;
        ] );
      ( "sata",
        [
          Alcotest.test_case "slots and completion" `Quick test_sata_slots_and_completion;
          Alcotest.test_case "disk time dominates" `Quick test_sata_disk_time_dominates;
        ] );
    ]
