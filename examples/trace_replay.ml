(* Trace capture and replay: the paper's §5.4 methodology end to end.

   1. Run the NIC model under strict protection with a DMA operation log
      attached (every map, unmap, and device access, cycle-stamped).
   2. Round-trip the log through its CSV format (what `riommu-cli trace`
      writes to disk).
   3. Replay the page-granular access stream against a TLB prefetcher
      and against the rIOTLB's two-entry scheme.

   Run with: dune exec examples/trace_replay.exe *)

module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Op_log = Rio_protect.Op_log
module Nic = Rio_device.Nic
module Nic_profiles = Rio_device.Nic_profiles
module Trace = Rio_prefetch.Trace
module Evaluate = Rio_prefetch.Evaluate

let capture () =
  let profile = { Nic_profiles.mlx with rx_ring = 128; tx_ring = 128 } in
  let api =
    Dma_api.create
      {
        (Dma_api.default_config ~mode:Mode.Strict) with
        Dma_api.ring_sizes = Nic.ring_sizes profile;
      }
  in
  let log = Op_log.create () in
  Dma_api.set_log api (Some log);
  let rng = Rio_sim.Rng.create ~seed:5 in
  let mem = Rio_memory.Phys_mem.create () in
  let nic = Nic.create ~data_movement:false ~profile ~api ~mem ~rng () in
  ignore (Nic.rx_fill nic);
  let payload = Bytes.make 1500 'x' in
  for _ = 1 to 200 do
    for _ = 1 to 8 do
      ignore (Nic.device_rx_deliver nic ~payload:(Bytes.make 64 'a'))
    done;
    ignore (Nic.rx_reap nic);
    ignore (Nic.rx_fill nic);
    ignore (Nic.tx_reclaim nic);
    for _ = 1 to 16 do
      ignore (Nic.tx_submit nic ~payload)
    done;
    ignore (Nic.device_tx_process nic ~max:16)
  done;
  log

let to_trace log =
  let events = ref [] in
  Op_log.iter log (fun e ->
      let page addr = addr lsr 12 in
      match e.Op_log.op with
      | Op_log.Map { addr; _ } -> events := Trace.Map (page addr) :: !events
      | Op_log.Unmap { addr } -> events := Trace.Unmap (page addr) :: !events
      | Op_log.Access { addr; ok = true; _ } ->
          events := Trace.Access (page addr) :: !events
      | Op_log.Access { ok = false; _ } -> ());
  Array.of_list (List.rev !events)

let () =
  let log = capture () in
  Printf.printf "captured %d DMA events from a strict-mode NIC run\n"
    (Op_log.length log);

  (* CSV round trip, as riommu-cli trace would persist it *)
  let csv = Op_log.to_csv log in
  let log' = Result.get_ok (Op_log.of_csv csv) in
  Printf.printf "CSV round trip: %d bytes, %d events preserved\n"
    (String.length csv) (Op_log.length log');

  let trace = to_trace log' in
  Printf.printf "page-granular trace: %d accesses over %d distinct pages\n\n"
    (Trace.accesses trace) (Trace.pages trace);

  let markov =
    Evaluate.run (module Rio_prefetch.Markov) ~history:2048
      ~retain_invalidated:true trace
  in
  Printf.printf "markov (history 2048, modified):  %2.0f%% of accesses predicted\n"
    (100. *. markov.Evaluate.hit_rate);
  let riotlb =
    Evaluate.run_riotlb ~ring_size:128 (Trace.cyclic ~ring_size:128 ~packets:3200 ())
  in
  Printf.printf "riotlb (2 entries per ring):      %2.0f%% of accesses predicted\n"
    (100. *. riotlb.Evaluate.hit_rate);
  print_endline
    "\nA multi-thousand-entry history buys what the rIOTLB gets from the\n\
     ring discipline and two entries."
