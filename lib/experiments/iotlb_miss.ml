module Addr = Rio_memory.Addr
module Rng = Rio_sim.Rng
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Table = Rio_report.Table
module Paper = Rio_report.Paper

type result = {
  hit_cycles : float;
  miss_cycles : float;
  penalty_cycles : float;
  penalty_us : float;
}

let measure ?(pool = 2_000) ?(accesses = 20_000) ?(seed = 5) () =
  let api =
    Dma_api.create
      { (Dma_api.default_config ~mode:Mode.Strict) with Dma_api.total_frames = pool + 64 }
  in
  let clock = Dma_api.clock api in
  let cost = Dma_api.cost api in
  let rng = Rng.create ~seed in
  let frames = Dma_api.frames api in
  (* a large pool of persistently mapped buffers (ibverbs-style
     registration: mapped once, used many times) *)
  let addrs =
    Array.init pool (fun _ ->
        let buf = Rio_memory.Frame_allocator.alloc_exn frames in
        Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:Addr.page_size
          ~dir:Rio_core.Rpte.Bidirectional)
  in
  let translate iova = ignore (Dma_api.translate_exn api ~iova ~write:false : Addr.phys) in
  (* single-buffer experiment: always hits after the first access *)
  translate addrs.(0);
  let start = Cycles.now clock in
  for _ = 1 to accesses do
    translate addrs.(0)
  done;
  let hit_cycles = float_of_int (Cycles.since clock start) /. float_of_int accesses in
  (* random-pool experiment: the 64-entry IOTLB almost always misses *)
  let start = Cycles.now clock in
  for _ = 1 to accesses do
    translate addrs.(Rng.int rng pool)
  done;
  let miss_cycles = float_of_int (Cycles.since clock start) /. float_of_int accesses in
  let penalty = miss_cycles -. hit_cycles in
  {
    hit_cycles;
    miss_cycles;
    penalty_cycles = penalty;
    penalty_us = Cost_model.cycles_to_us cost (int_of_float penalty);
  }

let reduce r =
  let t = Table.make ~headers:[ "metric"; "paper"; "measured" ] in
  Table.add_row t
    [ "miss penalty (cycles)";
      Table.cell_i Paper.iotlb_miss_cycles;
      Table.cell_f ~decimals:0 r.penalty_cycles ];
  Table.add_row t
    [ "miss penalty (us)"; "0.50"; Table.cell_f r.penalty_us ];
  {
    Exp.id = "iotlb_miss";
    title = "IOTLB miss penalty in low-latency environments (Section 5.3)";
    body = Table.render t;
    notes =
      [
        "the penalty is the 4-reference page walk the rIOMMU's prefetched \
         rIOTLB avoids in user-level I/O setups";
      ];
  }

let plan ?(quick = false) ?(seed = 42) () =
  let mseed = Seeds.iotlb_miss ~seed in
  Exp.plan_of_list
    [
      (fun () ->
        if quick then measure ~pool:500 ~accesses:2_000 ~seed:mseed ()
        else measure ~seed:mseed ());
    ]
    ~reduce:(function [ r ] -> reduce r | _ -> assert false)
