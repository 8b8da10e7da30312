(* Unit and property tests for the physical memory substrate (rio_memory). *)

open Rio_memory
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

let test_addr_arithmetic () =
  let a = Addr.phys_of_int 0x12345 in
  Alcotest.(check int) "pfn" 0x12 (Addr.pfn a);
  Alcotest.(check int) "offset" 0x345 (Addr.page_offset a);
  Alcotest.(check int) "of_pfn round trip" 0x12000 (Addr.to_int (Addr.of_pfn 0x12));
  Alcotest.(check bool) "aligned" true (Addr.is_page_aligned (Addr.of_pfn 7));
  Alcotest.(check bool) "unaligned" false (Addr.is_page_aligned a);
  Alcotest.(check int) "add" 0x12346 (Addr.to_int (Addr.add a 1))

let test_addr_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Addr.phys_of_int: negative")
    (fun () -> ignore (Addr.phys_of_int (-1)))

let test_frame_allocator_basics () =
  let fa = Frame_allocator.create ~total_frames:4 in
  let a = Frame_allocator.alloc_exn fa in
  let b = Frame_allocator.alloc_exn fa in
  Alcotest.(check bool) "distinct" false (a = b);
  Alcotest.(check int) "allocated" 2 (Frame_allocator.allocated fa);
  Frame_allocator.free fa a;
  Alcotest.(check int) "after free" 1 (Frame_allocator.allocated fa);
  let c = Frame_allocator.alloc_exn fa in
  Alcotest.(check bool) "LIFO recycling reuses freed frame" true (a = c)

let test_frame_allocator_exhaustion () =
  let fa = Frame_allocator.create ~total_frames:2 in
  ignore (Frame_allocator.alloc_exn fa);
  ignore (Frame_allocator.alloc_exn fa);
  Alcotest.check_raises "exhausted" Frame_allocator.Exhausted (fun () ->
      ignore (Frame_allocator.alloc_exn fa))

let test_frame_allocator_double_free () =
  let fa = Frame_allocator.create ~total_frames:2 in
  let a = Frame_allocator.alloc_exn fa in
  Frame_allocator.free fa a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Frame_allocator.free: frame not allocated") (fun () ->
      Frame_allocator.free fa a)

let test_frame_allocator_contiguous () =
  let fa = Frame_allocator.create ~total_frames:10 in
  let a = Option.get (Frame_allocator.alloc_contiguous fa ~frames:3) in
  let b = Option.get (Frame_allocator.alloc_contiguous fa ~frames:3) in
  Alcotest.(check int) "contiguous block starts after previous" 3
    (Addr.pfn b - Addr.pfn a);
  Alcotest.(check bool) "cannot overallocate" true
    (Frame_allocator.alloc_contiguous fa ~frames:5 = None)

let test_phys_mem_read_write () =
  let m = Phys_mem.create () in
  let addr = Addr.phys_of_int 100 in
  Phys_mem.write m addr (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Phys_mem.read m addr 5));
  Alcotest.(check string) "zero fill" "\000\000"
    (Bytes.to_string (Phys_mem.read m (Addr.phys_of_int 0) 2))

let test_phys_mem_cross_page () =
  let m = Phys_mem.create () in
  let addr = Addr.phys_of_int (Addr.page_size - 3) in
  Phys_mem.write m addr (Bytes.of_string "abcdef");
  Alcotest.(check string) "crosses frame boundary" "abcdef"
    (Bytes.to_string (Phys_mem.read m addr 6))

let make_coherency coherent =
  let clock = Cycles.create () in
  let c =
    Coherency.create ~coherent ~cost:Cost_model.default ~clock
  in
  (c, clock)

(* What a walker sees lives in the rRING's twin lanes: it keeps a CPU
   and a walker copy of every rPTE, and [Coherency] only decides
   whether a store reaches the walker copy at once and charges the
   syncs. *)
module Rring = Rio_core.Rring

let make_ring coherent =
  let c, clock = make_coherency coherent in
  let frames = Frame_allocator.create ~total_frames:16 in
  (Rring.create ~size:8 ~frames ~coherency:c, clock)

let test_coherency_noncoherent_staleness () =
  let cm = Cost_model.default in
  let r, clock = make_ring false in
  Alcotest.(check int) "walker starts clean" 0 (Rring.hw_phys r 3);
  Rring.set_cpu r 3 ~phys:0x5000 ~word1:7;
  Alcotest.(check int) "CPU view updated" 7 (Rring.cpu_word1 r 3);
  Alcotest.(check int) "walker phys stale after write" 0 (Rring.hw_phys r 3);
  Alcotest.(check int) "walker word1 stale after write" 0 (Rring.hw_word1 r 3);
  Alcotest.(check int) "a store alone is free" 0 (Cycles.now clock);
  Rring.sync r 3;
  Alcotest.(check int) "walker phys fresh after sync" 0x5000 (Rring.hw_phys r 3);
  Alcotest.(check int) "walker word1 fresh after sync" 7 (Rring.hw_word1 r 3);
  Alcotest.(check int) "sync charged barrier + flush + barrier"
    ((2 * cm.Cost_model.barrier) + cm.Cost_model.cacheline_flush)
    (Cycles.now clock)

let test_coherency_coherent_always_fresh () =
  let cm = Cost_model.default in
  let r, clock = make_ring true in
  Rring.set_cpu r 2 ~phys:0x9000 ~word1:5;
  Alcotest.(check int) "coherent walker sees phys" 0x9000 (Rring.hw_phys r 2);
  Alcotest.(check int) "coherent walker sees word1" 5 (Rring.hw_word1 r 2);
  Rring.sync r 2;
  Alcotest.(check int) "sync is one barrier" cm.Cost_model.barrier
    (Cycles.now clock)

let test_coherency_sync_mem_costs () =
  let cm = Cost_model.default in
  (* Non-coherent: barrier + flush + barrier (Figure 11 sync_mem). *)
  let c, clock = make_coherency false in
  Coherency.sync_mem c;
  Alcotest.(check int) "non-coherent sync cost"
    ((2 * cm.Cost_model.barrier) + cm.Cost_model.cacheline_flush)
    (Cycles.now clock);
  (* Coherent: single barrier. *)
  let c2, clock2 = make_coherency true in
  Coherency.sync_mem c2;
  Alcotest.(check int) "coherent sync cost" cm.Cost_model.barrier (Cycles.now clock2)

(* Staleness is per entry, not per cacheline: four 16-byte rPTEs share
   a 64-byte line, and syncing one publishes that one only; each sync
   charges its own flush. *)
let test_coherency_line_granularity () =
  let cm = Cost_model.default in
  let r, clock = make_ring false in
  Rring.set_cpu r 0 ~phys:0x1000 ~word1:1;
  Rring.set_cpu r 1 ~phys:0x2000 ~word1:2;
  Rring.sync r 0;
  Alcotest.(check int) "synced slot visible" 0x1000 (Rring.hw_phys r 0);
  Alcotest.(check int) "line neighbour still stale" 0 (Rring.hw_phys r 1);
  Rring.sync r 1;
  Alcotest.(check int) "neighbour visible after its own sync" 0x2000
    (Rring.hw_phys r 1);
  Alcotest.(check int) "one flush per sync"
    (2 * ((2 * cm.Cost_model.barrier) + cm.Cost_model.cacheline_flush))
    (Cycles.now clock)

let test_dma_buffer_alloc_free () =
  let fa = Frame_allocator.create ~total_frames:8 in
  let b = Option.get (Dma_buffer.alloc fa ~size:100) in
  Alcotest.(check bool) "pinned at alloc" true b.Dma_buffer.pinned;
  Alcotest.(check int) "frame consumed" 1 (Frame_allocator.allocated fa);
  Dma_buffer.free fa b;
  Alcotest.(check int) "frames returned" 0 (Frame_allocator.allocated fa)

let test_dma_buffer_multi_frame () =
  let fa = Frame_allocator.create ~total_frames:8 in
  let b = Option.get (Dma_buffer.alloc fa ~size:9000) in
  Alcotest.(check int) "9000B spans 3 frames" 3 (Frame_allocator.allocated fa);
  Dma_buffer.free fa b;
  Alcotest.(check int) "all returned" 0 (Frame_allocator.allocated fa)

let test_dma_buffer_sub_page () =
  let fa = Frame_allocator.create ~total_frames:2 in
  let bufs = Option.get (Dma_buffer.alloc_sub_page fa ~offsets:[ 0; 2048 ] ~size:1500) in
  (match bufs with
  | [ x; y ] ->
      Alcotest.(check int) "share a frame" (Addr.pfn x.Dma_buffer.base)
        (Addr.pfn y.Dma_buffer.base);
      Alcotest.(check int) "second at offset" 2048 (Addr.page_offset y.Dma_buffer.base)
  | _ -> Alcotest.fail "expected two buffers");
  Alcotest.(check int) "one frame consumed" 1 (Frame_allocator.allocated fa);
  (* one free of the frame they share *)
  Frame_allocator.free fa (Addr.of_pfn (Addr.pfn (List.hd bufs).Dma_buffer.base));
  Alcotest.(check int) "frame returned once" 0 (Frame_allocator.allocated fa)

let test_dma_buffer_sub_page_overlap_rejected () =
  let fa = Frame_allocator.create ~total_frames:2 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Dma_buffer.alloc_sub_page: overlapping or out of page")
    (fun () -> ignore (Dma_buffer.alloc_sub_page fa ~offsets:[ 0; 1000 ] ~size:1500))

let prop_phys_mem_roundtrip =
  QCheck.Test.make ~name:"phys_mem write/read round trip at any address" ~count:200
    QCheck.(pair (int_bound 100_000) (string_of_size Gen.(1 -- 300)))
    (fun (addr, data) ->
      QCheck.assume (String.length data > 0);
      let m = Phys_mem.create () in
      let a = Addr.phys_of_int addr in
      Phys_mem.write m a (Bytes.of_string data);
      Bytes.to_string (Phys_mem.read m a (String.length data)) = data)

let prop_frame_allocator_no_double_alloc =
  QCheck.Test.make ~name:"allocator never hands out a live frame twice" ~count:100
    QCheck.(list (int_bound 2))
    (fun ops ->
      let fa = Frame_allocator.create ~total_frames:64 in
      let live = Hashtbl.create 16 in
      let stack = ref [] in
      List.for_all
        (fun op ->
          if op < 2 then begin
            match Frame_allocator.alloc_exn fa with
            | exception Frame_allocator.Exhausted -> true
            | a ->
                let fresh = not (Hashtbl.mem live (Addr.pfn a)) in
                Hashtbl.replace live (Addr.pfn a) ();
                stack := a :: !stack;
                fresh
          end
          else begin
            match !stack with
            | [] -> true
            | a :: rest ->
                stack := rest;
                Hashtbl.remove live (Addr.pfn a);
                Frame_allocator.free fa a;
                true
          end)
        ops)

let () =
  Alcotest.run "rio_memory"
    [
      ( "addr",
        [
          Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic;
          Alcotest.test_case "rejects negative" `Quick test_addr_rejects_negative;
        ] );
      ( "frame_allocator",
        [
          Alcotest.test_case "alloc/free/recycle" `Quick test_frame_allocator_basics;
          Alcotest.test_case "exhaustion" `Quick test_frame_allocator_exhaustion;
          Alcotest.test_case "double free detected" `Quick test_frame_allocator_double_free;
          Alcotest.test_case "contiguous" `Quick test_frame_allocator_contiguous;
          QCheck_alcotest.to_alcotest prop_frame_allocator_no_double_alloc;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_phys_mem_read_write;
          Alcotest.test_case "cross page" `Quick test_phys_mem_cross_page;
          QCheck_alcotest.to_alcotest prop_phys_mem_roundtrip;
        ] );
      ( "coherency",
        [
          Alcotest.test_case "non-coherent staleness" `Quick
            test_coherency_noncoherent_staleness;
          Alcotest.test_case "coherent always fresh" `Quick
            test_coherency_coherent_always_fresh;
          Alcotest.test_case "sync_mem costs" `Quick test_coherency_sync_mem_costs;
          Alcotest.test_case "line granularity" `Quick test_coherency_line_granularity;
        ] );
      ( "dma_buffer",
        [
          Alcotest.test_case "alloc/free" `Quick test_dma_buffer_alloc_free;
          Alcotest.test_case "multi frame" `Quick test_dma_buffer_multi_frame;
          Alcotest.test_case "sub page" `Quick test_dma_buffer_sub_page;
          Alcotest.test_case "sub page overlap rejected" `Quick
            test_dma_buffer_sub_page_overlap_rejected;
        ] );
    ]
