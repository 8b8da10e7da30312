(* The hot-path baseline: hand-rolled loops over the translate / map /
   unmap / map_sg / iotlb-lookup / event-queue operations, the serve
   path (shard translate, histogram, wire codec, dispatch, SPSC ring)
   and the socket loop's readiness wait, measuring ns/op (wall clock)
   and allocated words/op (Gc.minor_words deltas), written to
   BENCH.json for bench/compare.exe. It exits 1 if any gated group
   allocates, which is how CI and bench/main.t pin the zero-allocation
   property.

   --quick divides every iteration count by ten (the smoke run); any
   other argument is a usage error (exit 2).

   Run with: dune exec bench/main.exe [-- --quick] *)

module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Rpte = Rio_core.Rpte

let quick =
  let args = List.tl (Array.to_list Sys.argv) in
  if not (List.for_all (String.equal "--quick") args) then begin
    prerr_endline "usage: main.exe [--quick]";
    exit 2
  end;
  args <> []

type sample = {
  group : string;
  iters : int;
  ns_per_op : float;
  words_per_op : float;
}

(* Reading [Gc.minor_words] itself allocates (the boxed float result), so
   the first reading's box lands inside the measured delta. Calibrate
   that constant once and subtract it; a genuinely allocation-free loop
   then reports exactly 0 words/op. *)
let counter_overhead =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let round2 x = Float.round (x *. 100.) /. 100.

(* [ops_per_iter] divides the measured totals when one call to [f] is a
   batch of that many logical operations (map_sg over an sg-list); the
   reported iters is the logical-op count. *)
let sample ?(ops_per_iter = 1) ~group ~iters f =
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  let w1 = Gc.minor_words () in
  let t1 = Unix.gettimeofday () in
  let ops = float_of_int (iters * ops_per_iter) in
  {
    group;
    iters = iters * ops_per_iter;
    ns_per_op = round2 ((t1 -. t0) *. 1e9 /. ops);
    words_per_op = round2 ((w1 -. w0 -. counter_overhead) /. ops);
  }

(* Steady-state translation through the strict-mode facade's de-boxed
   [translate_exn] — Dma_api.translate_exn → Driver.translate_exn →
   Iotlb.find on the driver's own IOTLB: the working set fits the IOTLB,
   so every lookup hits the packed-key fast path, and the hit path
   allocates nothing — no result boxing anywhere on the chain. *)
let json_translate ~iters =
  let api = Dma_api.create (Dma_api.default_config ~mode:Mode.Strict) in
  let frames = Dma_api.frames api in
  let pool = 48 in
  let iovas =
    Array.init pool (fun _ ->
        let buf = Rio_memory.Frame_allocator.alloc_exn frames in
        Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:4096 ~dir:Rpte.Bidirectional)
  in
  let i = ref 0 in
  let f () =
    ignore
      (Dma_api.translate_exn api ~iova:iovas.(!i mod pool) ~write:false
        : Rio_memory.Addr.phys);
    incr i
  in
  for _ = 1 to 2 * pool do f () done;
  sample ~group:"translate" ~iters f

(* Map N buffers then unmap them FIFO through the zero-alloc exn API
   (arena page table + magazine rcache), measured as two separate loops
   so neither measurement pollutes the other's Gc.minor_words delta.

   The warm-up geometry is deliberate: a magazine bucket parks at most
   2 magazines loaded + depot_max in the depot = 4352 one-page IOVAs.
   Mapping and unmapping exactly that many primes every magazine and
   spare without ever spilling to the tree, so the measured loops (at
   most 4096 live at once) run entirely on magazine hits. *)
let json_map_unmap ~iters =
  let iters = min iters 4096 in
  let api =
    Dma_api.create
      { (Dma_api.default_config ~mode:Mode.Strict) with Dma_api.rcache = true }
  in
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let map_one () =
    Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional
  in
  let prime = 4352 in
  let iovas = Array.make (max prime iters) 0 in
  for k = 0 to prime - 1 do
    iovas.(k) <- map_one ()
  done;
  for k = 0 to prime - 1 do
    Dma_api.unmap_exn api ~iova:iovas.(k) ~end_of_burst:true
  done;
  let i = ref 0 in
  let m =
    sample ~group:"map" ~iters (fun () ->
        iovas.(!i) <- map_one ();
        incr i)
  in
  let j = ref 0 in
  let u =
    sample ~group:"unmap" ~iters (fun () ->
        Dma_api.unmap_exn api ~iova:iovas.(!j) ~end_of_burst:true;
        incr j)
  in
  [ m; u ]

(* Scatter-gather batches through a tenant's driver: ~200-segment
   bursts (the paper's §3.2 amortization point),
   mapped and torn down per batch, the teardown paying one
   domain-selective flush instead of 200 invalidation commands (itself
   allocation-free under every IOTLB policy). *)
let json_map_sg ~iters =
  let open Rio_domain in
  let clock = Rio_sim.Cycles.create () in
  let cost = Rio_sim.Cost_model.default in
  let frames = Rio_memory.Frame_allocator.create ~total_frames:200_000 in
  let mgr =
    Manager.create ~iotlb_policy:Shared_iotlb.Partitioned ~iotlb_capacity:128
      ~invalidation:Manager.Per_domain ~policy:Driver.Immediate ~frames ~clock
      ~cost ~rcache:true ()
  in
  let d =
    Manager.driver
      (Manager.add_domain mgr ~bdf:(Rio_iommu.Bdf.make ~bus:1 ~device:0 ~func:0)
         ())
  in
  let burst = 200 in
  let buf = Rio_memory.Frame_allocator.alloc_exn frames in
  let phys = Array.make burst buf and bytes = Array.make burst 1500 in
  let iovas = Array.make burst 0 in
  let batch () =
    ignore
      (Driver.map_sg_exn d ~phys ~bytes ~n:burst ~iovas ~read:true ~write:true
        : int);
    Driver.unmap_sg_exn d ~iovas ~n:burst ~flush:Driver.Once
  in
  (* prime the magazines (4352-IOVA park capacity) and the arena *)
  for _ = 1 to 22 do
    batch ()
  done;
  sample ~group:"map_sg" ~iters ~ops_per_iter:burst batch

(* Steady-state IOTLB hit through the allocation-free [find] path: the
   zero words/op gate. *)
let json_iotlb_lookup ~iters =
  let clock = Rio_sim.Cycles.create () in
  let cost = Rio_sim.Cost_model.default in
  let tlb = Rio_iotlb.Iotlb.create ~capacity:64 ~clock ~cost () in
  for vpn = 0 to 63 do
    ignore (Rio_iotlb.Iotlb.insert tlb ~bdf:0x0300 ~vpn vpn : int)
  done;
  let i = ref 0 in
  let f () =
    ignore
      (Rio_iotlb.Iotlb.find tlb ~bdf:0x0300 ~vpn:(!i land 63) ~absent:(-1)
        : int);
    incr i
  in
  for _ = 1 to 10_000 do f () done;
  sample ~group:"iotlb-lookup" ~iters f

(* One push + one pop against a warm 256-event heap through the
   allocation-free [pop_exn] path: the other zero words/op gate. *)
let json_event_queue ~iters =
  let q = Rio_sim.Event_queue.create () in
  for k = 0 to 255 do
    Rio_sim.Event_queue.push q ~time:k k
  done;
  let t = ref 256 in
  let f () =
    Rio_sim.Event_queue.push q ~time:!t !t;
    ignore (Rio_sim.Event_queue.next_time q : int);
    ignore (Rio_sim.Event_queue.pop_exn q : int);
    incr t
  in
  for _ = 1 to 10_000 do f () done;
  sample ~group:"event-queue" ~iters f

(* The serve per-DMA path end to end — Shard.translate_record →
   Manager.translate_exn → Driver.translate_exn → Shared_iotlb.find →
   Iotlb.find plus the Histogram.record of the measured latency — on a
   warm premapped page: the service's own zero words/op gate. *)
let json_serve_translate ~iters =
  let shard =
    Rio_serve.Shard.create ~id:0 ~tenants:1 ~iotlb_capacity:64
      ~iotlb_policy:Rio_domain.Shared_iotlb.Shared ~rcache:true ~buf_pool:8 ()
  in
  let iova =
    Rio_serve.Shard.map shard ~tenant:0 ~phys:(Rio_serve.Shard.next_buf shard)
      ~bytes:4096
  in
  if iova < 0 then failwith "bench: serve map failed";
  let f () =
    ignore
      (Rio_serve.Shard.translate_record shard ~tenant:0 ~iova ~write:false
        : Rio_memory.Addr.phys)
  in
  for _ = 1 to 10_000 do f () done;
  sample ~group:"serve-translate" ~iters f

(* The same path on the IOTLB miss side: a Shared-policy shard whose
   two tenants are swept at random over 4x its IOTLB capacity, so ~75%
   of lookups miss, walk the arena, fill and evict — often the other
   tenant's entry, which runs the eviction-attribution hook. The pick
   sequence is precomputed so the loop itself allocates nothing. *)
let json_serve_translate_miss ~iters =
  let open Rio_serve in
  let capacity = 64 in
  let shard =
    Shard.create ~id:0 ~tenants:2 ~iotlb_capacity:capacity
      ~iotlb_policy:Rio_domain.Shared_iotlb.Shared ~rcache:true ~buf_pool:8 ()
  in
  let pages = 4 * capacity in
  let iovas =
    Array.init pages (fun p ->
        let v =
          Shard.map shard ~tenant:(p land 1) ~phys:(Shard.next_buf shard)
            ~bytes:4096
        in
        if v < 0 then failwith "bench: serve map failed";
        v)
  in
  let rng = Rio_sim.Rng.create ~seed:11 in
  let picks = Array.init 4096 (fun _ -> Rio_sim.Rng.int rng pages) in
  let i = ref 0 in
  let f () =
    let p = picks.(!i land 4095) in
    ignore
      (Shard.translate_record shard ~tenant:(p land 1) ~iova:iovas.(p)
         ~write:false
        : Rio_memory.Addr.phys);
    incr i
  in
  for _ = 1 to 10_000 do f () done;
  let s = sample ~group:"serve-translate-miss" ~iters f in
  let lookups = ref 0 and misses = ref 0 in
  for tenant = 0 to 1 do
    let st = Shard.iotlb_stats shard ~tenant in
    lookups := !lookups + st.Rio_domain.Shared_iotlb.hits + st.misses;
    misses := !misses + st.misses
  done;
  if 4 * !misses < 2 * !lookups then
    failwith "bench: serve-translate-miss no longer mostly misses";
  s

(* Histogram.record alone, swept across octaves so the bucket index
   computation (not just one cached bucket) is what's measured. *)
let json_histogram_record ~iters =
  let h = Rio_serve.Histogram.create () in
  let i = ref 0 in
  let f () =
    Rio_serve.Histogram.record h !i;
    i := (!i + 7_919) land 0xF_FFFF
  in
  for _ = 1 to 10_000 do f () done;
  sample ~group:"histogram-record" ~iters f

(* The riommu-wire/1 codec round trip: encode a translate request,
   decode it back into the reusable request record, encode the
   response, decode that into the reusable response record — the
   per-frame work both endpoints of the socket transport do, with zero
   allocation end to end (packed-int accessors, no boxed Int64s). *)
let json_wire_codec ~iters =
  let open Rio_serve_net in
  let buf = Bytes.create 256 in
  let req = Wire.create_req ~sg_limit:16 in
  let resp = Wire.create_resp ~sg_limit:16 in
  let i = ref 0 in
  let f () =
    let e =
      Wire.encode_translate buf ~pos:0 ~tenant:(!i land 0xFF) ~req_id:!i
        ~iova:(!i * 4096) ~write:false
    in
    if Wire.decode_request buf ~pos:0 ~avail:e req <> e then
      failwith "bench: wire-codec request round trip";
    let e2 =
      Wire.encode_translate_ok buf ~pos:0 ~req_id:req.Wire.req_id
        ~phys:req.Wire.iova
    in
    if Wire.decode_response buf ~pos:0 ~avail:e2 resp <> e2 then
      failwith "bench: wire-codec response round trip";
    incr i
  in
  for _ = 1 to 10_000 do f () done;
  sample ~group:"wire-codec" ~iters f

(* The socket transport's per-request shard handoff, end to end: feed
   the raw translate frame into the connection's read buffer, decode
   it ([Conn.next]), append it to its shard's batch
   ([Dispatch.enqueue] — the tenant is pinned by affinity hash),
   execute the batch ([Dispatch.flush_all]: the one op body through the
   shard manager, then [Dispatch.complete]), and drain the encoded
   response. The whole cycle is the zero words/op
   gate for the --listen ingestion path. *)
let json_dispatch_translate ~iters =
  let open Rio_serve in
  let open Rio_serve_net in
  let shards =
    Array.init 2 (fun id ->
        Shard.create ~id ~tenants:4 ~iotlb_capacity:64
          ~iotlb_policy:Rio_domain.Shared_iotlb.Shared ~rcache:true ~buf_pool:8
          ())
  in
  let d = Dispatch.create ~shards ~batch:64 ~sg_limit:16 () in
  let conn = Conn.create ~window:128 ~sg_limit:16 () in
  let req = Wire.create_req ~sg_limit:16 in
  let resp = Wire.create_resp ~sg_limit:16 in
  let scratch = Bytes.create 256 in
  let hlen = Wire.encode_hello scratch ~pos:0 ~bdf:0x300 ~flags:0 in
  Conn.feed conn scratch ~pos:0 ~len:hlen;
  ignore (Conn.next conn req : int);
  (* Map one page for tenant 1 through the full path and recover its
     iova from the encoded response. *)
  let mlen =
    Wire.encode_map scratch ~pos:0 ~tenant:1 ~req_id:1
      ~phys:(Rio_memory.Addr.to_int (Shard.next_buf shards.(0)))
      ~bytes:4096
  in
  Conn.feed conn scratch ~pos:0 ~len:mlen;
  if Conn.next conn req <= 0 then failwith "bench: dispatch map decode";
  ignore (Dispatch.enqueue d conn req : bool);
  Dispatch.flush_all d;
  let rlen = Conn.queued conn in
  if
    Wire.decode_response (Conn.wbuf conn) ~pos:(Conn.wpos conn) ~avail:rlen
      resp
    <= 0
    || resp.Wire.status <> Wire.st_ok
  then failwith "bench: dispatch map failed";
  Conn.consumed conn rlen;
  let flen =
    Wire.encode_translate scratch ~pos:0 ~tenant:1 ~req_id:2
      ~iova:resp.Wire.r_iova ~write:false
  in
  let f () =
    Conn.feed conn scratch ~pos:0 ~len:flen;
    if Conn.next conn req <= 0 then failwith "bench: dispatch decode";
    if not (Dispatch.enqueue d conn req) then
      failwith "bench: dispatch enqueue";
    Dispatch.flush_all d;
    Conn.consumed conn (Conn.queued conn)
  in
  for _ = 1 to 10_000 do f () done;
  sample ~group:"dispatch-translate" ~iters f

(* One SPSC ring hand-off — push a request cell, pop it back — the
   per-request cross-domain transport of the multi-domain loop. Both
   sides blit between the flat lane buffer and caller scratch; the
   only writes besides the lanes are the two Atomic cursor stores. *)
let json_spsc_ring ~iters =
  let open Rio_serve_net in
  let width = Cell.req_width ~sg_limit:8 in
  let ring = Spsc.create ~cap:1024 ~width in
  let src = Array.make width 0 in
  let dst = Array.make width 0 in
  src.(Cell.q_op) <- Wire.op_translate;
  let f () =
    if not (Spsc.try_push ring ~src) then failwith "bench: spsc push";
    if not (Spsc.try_pop ring ~dst) then failwith "bench: spsc pop"
  in
  for _ = 1 to 10_000 do f () done;
  sample ~group:"spsc-ring" ~iters f

(* One poll(2) readiness wakeup: wait over a set holding one
   always-ready pipe plus the revents sweep the socket loop runs after
   it. This is the per-wakeup cost the socket loop pays. *)
let json_readiness_wait ~iters =
  let module Poll_raw = Rio_poll.Poll_raw in
  let ps = Poll_raw.create ~cap:1 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let _ = Unix.write wr (Bytes.make 1 '!') 0 1 in
  Poll_raw.set ps ~idx:0 ~fd:rd ~events:Poll_raw.ev_in;
  let hits = ref 0 in
  let f () =
    if Poll_raw.wait ps ~n:1 ~timeout_ms:0 < 1 then
      failwith "bench: readiness wait";
    if Poll_raw.revents ps ~idx:0 <> 0 then incr hits
  in
  for _ = 1 to 10_000 do f () done;
  let s = sample ~group:"readiness-wait" ~iters f in
  Unix.close rd;
  Unix.close wr;
  s

(* Steady-state lookup, push/pop, and the full map/unmap/map_sg driver
   paths must not allocate: these are the paths a simulated run executes
   millions of times. *)
let gated_groups =
  [
    "translate"; "map"; "unmap"; "map_sg"; "iotlb-lookup"; "event-queue";
    "serve-translate"; "serve-translate-miss"; "histogram-record";
    "wire-codec"; "dispatch-translate"; "spsc-ring"; "readiness-wait";
  ]

let write_bench_json ~path samples =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"riommu-bench/1\",\n  \"quick\": %b,\n  \"groups\": [\n"
    quick;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"iters\": %d, \"ns_per_op\": %.2f, \
         \"words_per_op\": %.2f, \"gated_zero_alloc\": %b }%s\n"
        s.group s.iters s.ns_per_op s.words_per_op
        (List.mem s.group gated_groups)
        (if i = List.length samples - 1 then "" else ","))
    samples;
  output_string oc "  ]\n}\n";
  close_out oc

let () =
  let scale n = if quick then n / 10 else n in
  let samples =
    [ json_translate ~iters:(scale 200_000) ]
    @ json_map_unmap ~iters:(scale 4_096)
    @ [
        json_map_sg ~iters:(scale 2_000);
        json_iotlb_lookup ~iters:(scale 1_000_000);
        json_event_queue ~iters:(scale 1_000_000);
        json_serve_translate ~iters:(scale 1_000_000);
        json_serve_translate_miss ~iters:(scale 1_000_000);
        json_histogram_record ~iters:(scale 1_000_000);
        json_wire_codec ~iters:(scale 1_000_000);
        json_dispatch_translate ~iters:(scale 1_000_000);
        json_spsc_ring ~iters:(scale 1_000_000);
        json_readiness_wait ~iters:(scale 1_000_000);
      ]
  in
  List.iter
    (fun s ->
      Printf.printf "%-14s %10d iters %10.2f ns/op %8.2f words/op\n" s.group
        s.iters s.ns_per_op s.words_per_op)
    samples;
  write_bench_json ~path:"BENCH.json" samples;
  print_endline "wrote BENCH.json";
  let leaky =
    List.filter
      (fun s -> List.mem s.group gated_groups && s.words_per_op > 0.)
      samples
  in
  if leaky <> [] then begin
    List.iter
      (fun s ->
        Printf.eprintf
          "FAIL: %s allocates %.2f words/op (steady state must be 0)\n" s.group
          s.words_per_op)
      leaky;
    exit 1
  end

