(* Tests for the workload models (rio_workload): the §3.3 performance
   model, netperf stream/RR behaviour across modes, the server models,
   and Bonnie/SATA. These encode the paper's qualitative claims as
   assertions. *)

module Mode = Rio_protect.Mode
module Cost_model = Rio_sim.Cost_model
module Perf_model = Rio_workload.Perf_model
module Netperf = Rio_workload.Netperf
module Apache = Rio_workload.Apache
module Memcached = Rio_workload.Memcached
module Server_model = Rio_workload.Server_model
module Bonnie = Rio_workload.Bonnie
module Nic_profiles = Rio_device.Nic_profiles

let cost = Cost_model.default

(* {1 Perf model} *)

let test_model_formula () =
  (* the paper's worked numbers: C_none = 1816 at 3.1GHz -> ~20.5 Gbps *)
  let g = Perf_model.gbps ~cost ~bytes_per_packet:1500 ~cycles_per_packet:1816. in
  Alcotest.(check bool) "C=1816 gives ~20.5 Gbps" true (g > 20.0 && g < 21.0);
  (* inverse proportionality *)
  let g2 = Perf_model.gbps ~cost ~bytes_per_packet:1500 ~cycles_per_packet:3632. in
  Alcotest.(check (float 0.01)) "1/C scaling" (g /. 2.) g2

let test_model_capping () =
  let capped, limited =
    Perf_model.capped_gbps ~cost ~line_rate_gbps:10. ~bytes_per_packet:1500
      ~cycles_per_packet:1000.
  in
  Alcotest.(check (float 1e-9)) "clipped at line" 10. capped;
  Alcotest.(check bool) "flagged" true limited;
  let uncapped, unlimited =
    Perf_model.capped_gbps ~cost ~line_rate_gbps:40. ~bytes_per_packet:1500
      ~cycles_per_packet:10_000.
  in
  Alcotest.(check bool) "below line untouched" true (uncapped < 40. && not unlimited)

let test_model_cpu () =
  let pps = Perf_model.line_rate_pps ~line_rate_gbps:10. ~bytes_per_packet:1500 in
  Alcotest.(check bool) "~833K pps at 10G" true (pps > 8.2e5 && pps < 8.5e5);
  let cpu = Perf_model.cpu_fraction ~cost ~cycles_per_packet:1860. ~pps in
  Alcotest.(check bool) "half a core" true (cpu > 0.45 && cpu < 0.55);
  Alcotest.(check (float 1e-9)) "clipped at 1"
    1.0
    (Perf_model.cpu_fraction ~cost ~cycles_per_packet:100_000. ~pps)

let test_model_rr () =
  let rtt = Perf_model.rr_rtt_us ~cost ~base_us:13.4 ~extra_cycles:3100. in
  Alcotest.(check (float 0.01)) "3100 cycles = 1us extra" 14.4 rtt;
  Alcotest.(check bool) "tps inverse of rtt" true
    (abs_float (Perf_model.rr_transactions_per_second ~rtt_us:14.4 -. 69444.) < 10.)

(* {1 Netperf stream: the paper's qualitative claims} *)

let stream mode =
  Netperf.stream ~packets:4_000 ~warmup:8_000 ~mode ~profile:Nic_profiles.mlx ()

let test_stream_mode_ordering () =
  let results = List.map (fun m -> (m, stream m)) Mode.evaluated in
  let gbps m = (List.assoc m results).Netperf.gbps in
  (* the paper's Figure 12 / Table 2 ordering *)
  Alcotest.(check bool) "none fastest" true (gbps Mode.None_ >= gbps Mode.Riommu);
  Alcotest.(check bool) "riommu > riommu-" true (gbps Mode.Riommu > gbps Mode.Riommu_minus);
  Alcotest.(check bool) "riommu- > defer+" true
    (gbps Mode.Riommu_minus > gbps Mode.Defer_plus);
  Alcotest.(check bool) "defer+ > defer" true (gbps Mode.Defer_plus > gbps Mode.Defer);
  Alcotest.(check bool) "defer > strict+" true (gbps Mode.Defer > gbps Mode.Strict_plus);
  Alcotest.(check bool) "strict+ > strict" true (gbps Mode.Strict_plus > gbps Mode.Strict);
  (* headline ratio: rIOMMU severalfold over strict even in short runs *)
  Alcotest.(check bool) "riommu >= 3x strict" true
    (gbps Mode.Riommu /. gbps Mode.Strict >= 3.);
  (* rIOMMU lands within the paper's 0.77-1.00x of none *)
  let ratio = gbps Mode.Riommu /. gbps Mode.None_ in
  Alcotest.(check bool)
    (Printf.sprintf "riommu/none = %.2f in [0.7, 1.0]" ratio)
    true
    (ratio >= 0.7 && ratio <= 1.0)

let test_stream_no_faults_and_cache () =
  let r = stream Mode.Riommu in
  Alcotest.(check int) "no faults in steady state" 0 r.Netperf.faults;
  let r2 = stream Mode.Riommu in
  Alcotest.(check bool) "memoized rerun identical" true (r == r2)

let test_stream_brcm_line_rate () =
  let r =
    Netperf.stream ~packets:4_000 ~warmup:8_000 ~mode:Mode.Riommu
      ~profile:Nic_profiles.brcm ()
  in
  Alcotest.(check bool) "brcm riommu saturates 10G" true r.Netperf.line_limited;
  Alcotest.(check (float 1e-6)) "line rate" 10.0 r.Netperf.gbps;
  Alcotest.(check bool) "cpu below 1 at line rate" true (r.Netperf.cpu < 1.0)

(* {1 Netperf RR} *)

let test_rr_passthrough_equivalence () =
  (* §5.1 methodology validation: HWpt, SWpt and no-IOMMU are equivalent
     for RR - the IOTLB miss penalty hides under the stack latency. *)
  let rtt mode =
    (Netperf.rr ~transactions:300 ~mode ~profile:Nic_profiles.mlx ()).Netperf.rtt_us
  in
  let none = rtt Mode.None_ in
  let hwpt = rtt Mode.Hw_passthrough in
  let swpt = rtt Mode.Sw_passthrough in
  Alcotest.(check bool) "hwpt ~ swpt" true (abs_float (hwpt -. swpt) < 0.05);
  Alcotest.(check bool) "pt within 1% of none" true
    (abs_float (hwpt -. none) /. none < 0.01)

let test_rr_ordering () =
  let rtt mode =
    (Netperf.rr ~transactions:300 ~mode ~profile:Nic_profiles.mlx ()).Netperf.rtt_us
  in
  let none = rtt Mode.None_ in
  let riommu = rtt Mode.Riommu in
  let strict = rtt Mode.Strict in
  Alcotest.(check bool) "none < riommu < strict" true (none < riommu && riommu < strict);
  (* Table 3 magnitudes: all within a few us of the wire baseline *)
  Alcotest.(check bool) "strict within 2x of none" true (strict < 2. *. none)

(* {1 Server models} *)

let test_apache_1k_mostly_compute_bound () =
  (* Apache 1KB is dominated by per-request (connection + application)
     processing: strict costs ~2.3x, not the ~7x of stream (paper
     Table 2: riommu/strict = 2.32, riommu/none = 0.92) *)
  let rps prot =
    (Apache.run Apache.KB1 ~profile:Nic_profiles.mlx ~protection_per_packet:prot
       ~cost).Server_model.requests_per_sec
  in
  let strict_ratio = rps 500. /. rps 13_900. in
  Alcotest.(check bool)
    (Printf.sprintf "riommu/strict-like = %.2f in [1.5, 3.5]" strict_ratio)
    true
    (strict_ratio > 1.5 && strict_ratio < 3.5);
  Alcotest.(check bool) "~12K req/s ballpark" true
    (let r = rps 500. in
     r > 8_000. && r < 14_000.)

let test_apache_1m_stream_like () =
  (* Apache 1MB amortizes per-request cost over ~1000 packets: protection
     dominates like netperf stream (paper: riommu/strict = 5.8) *)
  let rps prot =
    (Apache.run Apache.MB1 ~profile:Nic_profiles.mlx ~protection_per_packet:prot
       ~cost).Server_model.requests_per_sec
  in
  let ratio = rps 300. /. rps 12_000. in
  Alcotest.(check bool)
    (Printf.sprintf "riommu/strict-like ratio %.1f > 3" ratio)
    true (ratio > 3.)

let test_memcached_order_of_magnitude () =
  (* memcached is ~10x apache 1K (paper §5.2) *)
  let mc =
    (Memcached.run ~profile:Nic_profiles.mlx ~protection_per_packet:500. ~cost)
      .Server_model.requests_per_sec
  in
  let ap =
    (Apache.run Apache.KB1 ~profile:Nic_profiles.mlx ~protection_per_packet:500.
       ~cost).Server_model.requests_per_sec
  in
  Alcotest.(check bool)
    (Printf.sprintf "memcached %.0f ~ 10x apache %.0f" mc ap)
    true
    (mc /. ap > 5. && mc /. ap < 20.)

let test_brcm_1m_line_limited () =
  (* brcm apache 1M saturates the 10G link for fast modes: cpu becomes
     the metric (paper Table 2 brcm rows) *)
  let r =
    Apache.run Apache.MB1 ~profile:Nic_profiles.brcm ~protection_per_packet:300.
      ~cost
  in
  Alcotest.(check bool) "line limited" true r.Server_model.line_limited;
  Alcotest.(check bool) "cpu < 1" true (r.Server_model.cpu < 1.0)

(* {1 DMA payloads} *)

let test_packet_survives_dma () =
  (* a payload pushed through real translation + physical memory comes
     back byte for byte *)
  let api =
    Rio_protect.Dma_api.create
      (Rio_protect.Dma_api.default_config ~mode:Mode.Riommu)
  in
  let mem = Rio_memory.Phys_mem.create () in
  let buf =
    Rio_memory.Frame_allocator.alloc_exn (Rio_protect.Dma_api.frames api)
  in
  let addr =
    Rio_protect.Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500
      ~dir:Rio_core.Rpte.Bidirectional
  in
  let payload = Bytes.init 1500 (fun i -> Char.chr ((7 + (31 * i)) land 0xff)) in
  Alcotest.(check bool) "dma write" true
    (Rio_device.Dma.write_to_memory ~api ~mem ~addr ~data:payload = Ok ());
  (match Rio_device.Dma.read_from_memory ~api ~mem ~addr ~len:1500 with
  | Ok back ->
      Alcotest.(check bool) "same bytes after dma" true (Bytes.equal payload back)
  | Error e -> Alcotest.fail e)

(* {1 Bonnie / SATA} *)

let test_bonnie_strict_equals_none () =
  let strict =
    Bonnie.run ~requests:200 ~mode:Mode.Strict ~disk_bandwidth_mbps:150. ()
  in
  let none = Bonnie.run ~requests:200 ~mode:Mode.None_ ~disk_bandwidth_mbps:150. () in
  Alcotest.(check (float 0.01)) "indistinguishable throughput"
    (none.Bonnie.mbps /. none.Bonnie.mbps)
    (strict.Bonnie.mbps /. none.Bonnie.mbps);
  Alcotest.(check bool) "disk bound" true
    (strict.Bonnie.disk_seconds > strict.Bonnie.cpu_seconds)

(* [Objects.http_bytes] against the bounded Pareto inverse CDF evaluated
   from scratch, (lo/hi)^alpha included, over the draw range's ends and
   a spread of 53-bit draws. *)
let test_objects_http_bytes_formula () =
  let reference bits =
    let u = float_of_int bits /. 9007199254740992. in
    let lo = 256. and hi = 1_048_576. and alpha = 1.2 in
    let ratio = (lo /. hi) ** alpha in
    let b = int_of_float (lo /. ((1. -. (u *. (1. -. ratio))) ** (1. /. alpha))) in
    max 256 (min 1_048_576 b)
  in
  let rng = Rio_sim.Rng.create ~seed:5 in
  let draws =
    [ 0; 1; 1 lsl 52; (1 lsl 53) - 1 ]
    @ List.init 2_000 (fun _ -> Rio_sim.Rng.int rng (1 lsl 30) lsl 23)
  in
  List.iter
    (fun bits ->
      Alcotest.(check int) (Printf.sprintf "draw %d" bits) (reference bits)
        (Rio_workload.Objects.http_bytes bits))
    draws

let () =
  Alcotest.run "rio_workload"
    [
      ( "perf_model",
        [
          Alcotest.test_case "Gbps(C) formula" `Quick test_model_formula;
          Alcotest.test_case "line-rate capping" `Quick test_model_capping;
          Alcotest.test_case "cpu fraction" `Quick test_model_cpu;
          Alcotest.test_case "rr latency" `Quick test_model_rr;
        ] );
      ( "netperf",
        [
          Alcotest.test_case "stream mode ordering" `Slow test_stream_mode_ordering;
          Alcotest.test_case "no faults + memoization" `Quick
            test_stream_no_faults_and_cache;
          Alcotest.test_case "brcm line rate" `Quick test_stream_brcm_line_rate;
          Alcotest.test_case "rr ordering" `Quick test_rr_ordering;
          Alcotest.test_case "rr passthrough equivalence (§5.1)" `Quick
            test_rr_passthrough_equivalence;
        ] );
      ( "servers",
        [
          Alcotest.test_case "apache 1K compute-bound" `Quick
            test_apache_1k_mostly_compute_bound;
          Alcotest.test_case "apache 1M stream-like" `Quick test_apache_1m_stream_like;
          Alcotest.test_case "memcached ~10x apache" `Quick
            test_memcached_order_of_magnitude;
          Alcotest.test_case "brcm 1M line-limited" `Quick test_brcm_1m_line_limited;
        ] );
      ( "packet",
        [
          Alcotest.test_case "survives dma" `Quick test_packet_survives_dma;
        ] );
      ( "bonnie",
        [
          Alcotest.test_case "strict = none on SATA" `Quick test_bonnie_strict_equals_none;
        ] );
      ( "objects",
        [
          Alcotest.test_case "http_bytes = bounded Pareto formula" `Quick
            test_objects_http_bytes_formula;
        ] );
    ]
