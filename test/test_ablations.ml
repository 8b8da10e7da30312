(* Assertions over the ablation sweeps (rio_experiments.Ablations): the
   rendered experiment is smoke-tested elsewhere; here the underlying
   claims are checked numerically by re-deriving the key curves. *)

module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Rpte = Rio_core.Rpte
module Cost_model = Rio_sim.Cost_model
module Frame_allocator = Rio_memory.Frame_allocator

let pair_cost ~mode ~burst ~rounds =
  let api =
    Dma_api.create
      { (Dma_api.default_config ~mode) with Dma_api.ring_sizes = [ 512 ] }
  in
  let buf = Frame_allocator.alloc_exn (Dma_api.frames api) in
  Dma_api.reset_driver_cycles api;
  let pairs = ref 0 in
  for _ = 1 to rounds do
    let addrs =
      List.init burst (fun _ ->
          Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional)
    in
    List.iteri
      (fun i iova ->
        Dma_api.unmap_exn api ~iova ~end_of_burst:(i = burst - 1);
        incr pairs)
      addrs
  done;
  Dma_api.driver_cycles api / !pairs

let test_burst_amortization_monotone () =
  let costs =
    List.map (fun burst -> pair_cost ~mode:Mode.Riommu ~burst ~rounds:40)
      [ 1; 8; 64; 256 ]
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cost strictly falls with burst length" true
    (decreasing costs);
  (* at burst 1 the invalidation dominates; at 256 it vanishes *)
  let inv = Cost_model.default.Cost_model.iotlb_invalidate in
  Alcotest.(check bool) "burst 1 pays a full invalidation" true
    (List.hd costs > inv);
  Alcotest.(check bool) "burst 256 pays almost none" true
    (List.nth costs 3 < inv / 4)

let test_burst_200_matches_paper_claim () =
  (* §4: netperf's ~200-unmap bursts make the invalidation negligible -
     the amortized share must be ~2150/200 ~= 11 cycles *)
  let with_inv = pair_cost ~mode:Mode.Riommu ~burst:200 ~rounds:20 in
  let inv_share = Cost_model.default.Cost_model.iotlb_invalidate / 200 in
  Alcotest.(check bool)
    (Printf.sprintf "amortized share ~%d cycles within pair cost %d" inv_share
       with_inv)
    true
    (with_inv < 200)

let test_overflow_cliff () =
  (* §4: N >= L is overflow-free; N < L overflows on the excess *)
  let rate ~n ~l =
    let api =
      Dma_api.create
        { (Dma_api.default_config ~mode:Mode.Riommu) with Dma_api.ring_sizes = [ n ] }
    in
    let buf = Frame_allocator.alloc_exn (Dma_api.frames api) in
    let live = Queue.create () in
    let overflows = ref 0 in
    let attempts = 2_000 in
    for _ = 1 to attempts do
      (match Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:100 ~dir:Rpte.Bidirectional with
      | addr -> Queue.add addr live
      | exception Rio_core.Driver.Overflow -> incr overflows);
      if Queue.length live > l then
        Dma_api.unmap_exn api ~iova:(Queue.pop live) ~end_of_burst:true
    done;
    float_of_int !overflows /. float_of_int attempts
  in
  Alcotest.(check (float 1e-9)) "N > L never overflows" 0. (rate ~n:128 ~l:100);
  Alcotest.(check bool) "N < L overflows heavily" true (rate ~n:64 ~l:128 > 0.4)

let test_pathology_growth_direction () =
  (* re-derive the long-term curve cheaply: late windows cost more than
     early ones for Linux, not for the fast allocator *)
  let windows kind =
    let clock = Rio_sim.Cycles.create () in
    let alloc =
      Rio_iova.Allocator.create ~kind ~limit_pfn:0xFFFFF ~clock
        ~cost:Cost_model.default
    in
    let rng = Rio_sim.Rng.create ~seed:3 in
    let fifo = Queue.create () in
    for _ = 1 to 512 do
      (match Rio_iova.Allocator.alloc_pfn alloc ~size:(1 + Rio_sim.Rng.int rng 2) with
      | -1 -> ()
      | pfn -> Queue.add pfn fifo)
    done;
    List.init 3 (fun _ ->
        let t0 = Rio_sim.Cycles.now clock in
        for _ = 1 to 4_000 do
          (match Queue.take_opt fifo with
          | Some pfn -> (
              match Rio_iova.Allocator.find_exn alloc ~pfn with
              | node -> Rio_iova.Allocator.free alloc node
              | exception Not_found -> ())
          | None -> ());
          match Rio_iova.Allocator.alloc_pfn alloc ~size:(1 + Rio_sim.Rng.int rng 2) with
          | -1 -> ()
          | pfn -> Queue.add pfn fifo
        done;
        Rio_sim.Cycles.since clock t0)
  in
  (match windows Rio_iova.Allocator.Linux with
  | [ w1; _; w3 ] ->
      Alcotest.(check bool)
        (Printf.sprintf "linux grows (%d -> %d)" w1 w3)
        true
        (float_of_int w3 > 1.2 *. float_of_int w1)
  | _ -> Alcotest.fail "expected three windows");
  match windows Rio_iova.Allocator.Fast with
  | [ w1; _; w3 ] ->
      Alcotest.(check bool)
        (Printf.sprintf "fast stays flat (%d -> %d)" w1 w3)
        true
        (float_of_int w3 < 1.1 *. float_of_int w1)
  | _ -> Alcotest.fail "expected three windows"

let () =
  Alcotest.run "rio_ablations"
    [
      ( "ablations",
        [
          Alcotest.test_case "burst amortization monotone" `Quick
            test_burst_amortization_monotone;
          Alcotest.test_case "burst ~200 negligible (paper §4)" `Quick
            test_burst_200_matches_paper_claim;
          Alcotest.test_case "overflow cliff at N < L" `Quick test_overflow_cliff;
          Alcotest.test_case "pathology grows only for linux allocator" `Quick
            test_pathology_growth_direction;
        ] );
    ]
