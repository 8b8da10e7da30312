module Table = Rio_report.Table
module Trace = Rio_prefetch.Trace
module Evaluate = Rio_prefetch.Evaluate
module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Op_log = Rio_protect.Op_log
module Nic = Rio_device.Nic
module Nic_profiles = Rio_device.Nic_profiles

(* The paper fed its prefetchers DMA traces logged from emulated devices;
   here the trace is logged from the strict-mode NIC model itself: every
   map/unmap/device-access of a netperf-style run, converted to
   page-granular events. *)
let nic_trace ~seed ~packets =
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
  let rng = Rio_sim.Rng.create ~seed in
  let mem = Rio_memory.Phys_mem.create () in
  let nic = Nic.create ~data_movement:false ~profile ~api ~mem ~rng () in
  ignore (Nic.rx_fill nic);
  let payload = Bytes.make 1500 'x' in
  let sent = ref 0 in
  while !sent < packets do
    for _ = 1 to 8 do
      ignore (Nic.device_rx_deliver nic ~payload:(Bytes.make 64 'a'))
    done;
    ignore (Nic.rx_reap nic);
    ignore (Nic.rx_fill nic);
    ignore (Nic.tx_reclaim nic);
    for _ = 1 to 16 do
      match Nic.tx_submit nic ~payload with
      | Ok () -> incr sent
      | Error (`Ring_full | `Map_failed) -> ()
    done;
    ignore (Nic.device_tx_process nic ~max:16)
  done;
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

let ring = 256
let histories = [ 64; 256; 1024; 4096 ]

let predictors : (module Rio_prefetch.Prefetcher.S) list =
  [ (module Rio_prefetch.Markov);
    (module Rio_prefetch.Recency);
    (module Rio_prefetch.Distance) ]

let reduce rows =
  let t =
    Table.make
      ~headers:
        ("prefetcher" :: "variant"
        :: List.map (fun h -> Printf.sprintf "hist=%d" h) histories)
  in
  (* rows arrive in cell order: predictor-major, then variant, with the
     riotlb reference row last *)
  let riotlb_row = List.nth rows (List.length rows - 1) in
  List.iteri
    (fun i row -> if i < List.length rows - 1 then Table.add_row t row)
    rows;
  Table.add_separator t;
  Table.add_row t riotlb_row;
  {
    Exp.id = "prefetchers";
    title = "TLB prefetchers vs the rIOTLB on ring DMA traces (Section 5.4)";
    body = Table.render t;
    notes =
      [
        "Markov/Recency/Distance replay a DMA trace logged from the strict-mode \
         NIC model (the paper logged emulated QEMU devices the same way)";
        Printf.sprintf "rIOTLB ring size %d" ring;
        "paper findings reproduced: baseline variants are ineffective (IOVAs \
         are invalidated right after use); modified Markov/Recency only predict \
         once their history exceeds the ring; Distance stays ineffective; the \
         rIOTLB needs two entries and its predictions are nearly always right";
      ];
  }
(* the logged NIC trace is shared by all six predictor cells; under a
   parallel pool the first cell to need it computes it and the rest
   block on the memo slot rather than redoing the NIC run *)
let shared_trace =
  let cache = Rio_exec.Memo.create ~size:4 () in
  fun ~seed ~packets ->
    Rio_exec.Memo.find_or_add cache (seed, packets) (fun () ->
        nic_trace ~seed ~packets)

let plan ?(quick = false) ?(seed = 42) () =
  let packets = if quick then 4_000 else 20_000 in
  let tseed = Seeds.nic_trace ~seed in
  let predictor_cells =
    List.concat_map
      (fun ((module P : Rio_prefetch.Prefetcher.S) as m) ->
        List.map
          (fun retain () ->
            let trace = shared_trace ~seed:tseed ~packets in
            let cells =
              List.map
                (fun history ->
                  let r =
                    Evaluate.run m ~history ~retain_invalidated:retain trace
                  in
                  Table.cell_pct r.Evaluate.hit_rate)
                histories
            in
            P.name :: (if retain then "modified" else "baseline") :: cells)
          [ false; true ])
      predictors
  in
  let riotlb_cell () =
    let cyclic_trace = Trace.cyclic ~ring_size:ring ~packets () in
    let riotlb = Evaluate.run_riotlb ~ring_size:ring cyclic_trace in
    "riotlb" :: "2 entries"
    :: List.map (fun _ -> Table.cell_pct riotlb.Evaluate.hit_rate) histories
  in
  Exp.plan_of_list (predictor_cells @ [ riotlb_cell ]) ~reduce
