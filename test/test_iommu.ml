(* Unit and integration tests for the baseline IOMMU: bdf and rid-table
   plumbing (rio_iommu), and the driver (Rio_domain.Driver) on both
   sides - the hardware translate path, and map/unmap in its four
   protection modes, including the deferred-mode vulnerability window
   and the page-granularity leakage of Section 4. *)

module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Breakdown = Rio_sim.Breakdown
module Pte = Rio_pagetable.Pte
module Arena = Rio_pagetable.Arena
module Iotlb = Rio_iotlb.Iotlb
module Allocator = Rio_iova.Allocator
module Bdf = Rio_iommu.Bdf
module Rid_table = Rio_iommu.Rid_table
module Driver = Rio_domain.Driver

let test_bdf_roundtrip () =
  let b = Bdf.make ~bus:0x3a ~device:17 ~func:5 in
  let rid = Bdf.to_rid b in
  Alcotest.(check (triple int int int)) "rid round trip"
    (b.Bdf.bus, b.Bdf.device, b.Bdf.func)
    (rid lsr 8, (rid lsr 3) land 0x1F, rid land 0x7);
  Alcotest.(check int) "rid packs bus:device.func" 0x3a8d rid

let test_bdf_bounds () =
  Alcotest.check_raises "bus" (Invalid_argument "Bdf.make: bus") (fun () ->
      ignore (Bdf.make ~bus:256 ~device:0 ~func:0));
  Alcotest.check_raises "device" (Invalid_argument "Bdf.make: device") (fun () ->
      ignore (Bdf.make ~bus:0 ~device:32 ~func:0));
  Alcotest.check_raises "func" (Invalid_argument "Bdf.make: func") (fun () ->
      ignore (Bdf.make ~bus:0 ~device:0 ~func:8))

type rig = {
  clock : Cycles.t;
  frames : Frame_allocator.t;
  driver : Driver.t;
}

let make_rig ?(alloc_kind = Allocator.Linux) ?(policy = Driver.Immediate)
    ?(iotlb_capacity = 64) () =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:200_000 in
  let coherency = Coherency.create ~coherent:false ~cost ~clock in
  let table = Arena.create ~frames ~coherency ~clock ~cost in
  let iotlb = Iotlb.create ~capacity:iotlb_capacity ~clock ~cost () in
  let allocator = Allocator.create ~kind:alloc_kind ~limit_pfn:0xFFFFF ~clock ~cost in
  let rid = Bdf.to_rid (Bdf.make ~bus:3 ~device:0 ~func:0) in
  let driver = Driver.create ~table ~allocator ~target:(Driver.Own iotlb) ~rid ~policy ~clock ~cost () in
  { clock; frames; driver }

let phys_check = Alcotest.testable Addr.pp ( = )

(* One DMA with its fault class as a value: the driver raises the
   constant [Translation_fault] and names the class in [last_fault]. *)
let translate d ~iova ~write =
  match Driver.translate_exn d ~iova ~write with
  | p -> Ok p
  | exception Driver.Translation_fault -> Error (Driver.last_fault d)

let test_map_translate_unmap () =
  let r = make_rig () in
  let buf = Frame_allocator.alloc_exn r.frames in
  let iova =
    Driver.map_exn r.driver ~phys:buf ~bytes:1500 ~read:true ~write:true
  in
  (match translate r.driver ~iova ~write:true with
  | Ok p -> Alcotest.check phys_check "translates to buffer" buf p
  | Error f -> Alcotest.failf "unexpected fault: %a" Driver.pp_fault f);
  (* offsets within the buffer follow the page offset *)
  (match translate r.driver ~iova:(iova + 100) ~write:true with
  | Ok p -> Alcotest.check phys_check "offset preserved" (Addr.add buf 100) p
  | Error f -> Alcotest.failf "unexpected fault: %a" Driver.pp_fault f);
  Driver.unmap_exn r.driver ~iova;
  (match translate r.driver ~iova ~write:true with
  | Error Driver.No_translation -> ()
  | Ok _ -> Alcotest.fail "strict mode must fault after unmap"
  | Error f -> Alcotest.failf "wrong fault: %a" Driver.pp_fault f)

let test_unaligned_buffer_keeps_offset () =
  let r = make_rig () in
  let frame = Frame_allocator.alloc_exn r.frames in
  let buf = Addr.add frame 0x123 in
  let iova =
    Driver.map_exn r.driver ~phys:buf ~bytes:64 ~read:true ~write:false
  in
  Alcotest.(check int) "iova keeps page offset" 0x123 (iova land (Addr.page_size - 1));
  match translate r.driver ~iova ~write:false with
  | Ok p -> Alcotest.check phys_check "maps to unaligned base" buf p
  | Error f -> Alcotest.failf "unexpected fault: %a" Driver.pp_fault f

let test_multi_page_map () =
  let r = make_rig () in
  let buf = Option.get (Rio_memory.Dma_buffer.alloc r.frames ~size:9000) in
  let iova =
    Driver.map_exn r.driver ~phys:buf.Rio_memory.Dma_buffer.base ~bytes:9000
      ~read:true ~write:true
  in
  (* last byte of the third page translates correctly *)
  (match translate r.driver ~iova:(iova + 8999) ~write:true with
  | Ok p ->
      Alcotest.check phys_check "third page"
        (Addr.add buf.Rio_memory.Dma_buffer.base 8999)
        p
  | Error f -> Alcotest.failf "unexpected fault: %a" Driver.pp_fault f);
  Driver.unmap_exn r.driver ~iova;
  Alcotest.(check bool) "all pages gone" true
    (translate r.driver ~iova:(iova + 8192) ~write:true
    = Error Driver.No_translation)

let test_direction_enforcement () =
  let r = make_rig () in
  let buf = Frame_allocator.alloc_exn r.frames in
  let iova =
    Driver.map_exn r.driver ~phys:buf ~bytes:512 ~read:true ~write:false
  in
  Alcotest.(check bool) "read allowed" true
    (Result.is_ok (translate r.driver ~iova ~write:false));
  Alcotest.(check bool) "write denied" true
    (translate r.driver ~iova ~write:true = Error Driver.Not_permitted)

let test_fault_counted () =
  let r = make_rig () in
  Alcotest.(check bool) "nothing mapped" true
    (translate r.driver ~iova:0x1000 ~write:false
    = Error Driver.No_translation);
  Alcotest.(check int) "fault counted" 1 (Driver.faults r.driver)

let test_iotlb_caching_on_translate () =
  let r = make_rig () in
  let buf = Frame_allocator.alloc_exn r.frames in
  let iova =
    Driver.map_exn r.driver ~phys:buf ~bytes:100 ~read:true ~write:true
  in
  let walk_cost = 4 * Cost_model.default.Cost_model.io_walk_ref in
  let _, first = Cycles.measure r.clock (fun () ->
      ignore (translate r.driver ~iova ~write:true))
  in
  let _, second = Cycles.measure r.clock (fun () ->
      ignore (translate r.driver ~iova ~write:true))
  in
  Alcotest.(check bool) "first translate pays the walk" true (first >= walk_cost);
  Alcotest.(check bool) "second is an IOTLB hit" true (second < walk_cost / 4)

let test_strict_unmap_charges_invalidation () =
  let r = make_rig () in
  let buf = Frame_allocator.alloc_exn r.frames in
  let iova =
    Driver.map_exn r.driver ~phys:buf ~bytes:100 ~read:true ~write:true
  in
  let _, cost = Cycles.measure r.clock (fun () ->
      Driver.unmap_exn r.driver ~iova)
  in
  Alcotest.(check bool)
    (Printf.sprintf "strict unmap cost %d includes ~2100-cycle invalidation" cost)
    true
    (cost >= Cost_model.default.Cost_model.iotlb_invalidate)

(* The deferred-mode vulnerability window (§3.2): after unmap, the device
   can still reach the buffer through the stale IOTLB entry until 250
   unmaps accumulate and the whole IOTLB is flushed. *)
let test_deferred_vulnerability_window () =
  let r = make_rig ~policy:(Driver.Deferred { batch = 250 }) () in
  let buf = Frame_allocator.alloc_exn r.frames in
  let iova =
    Driver.map_exn r.driver ~phys:buf ~bytes:100 ~read:true ~write:true
  in
  (* device touches the buffer: IOTLB now caches the translation *)
  Alcotest.(check bool) "initial access ok" true
    (Result.is_ok (translate r.driver ~iova ~write:true));
  Driver.unmap_exn r.driver ~iova;
  Alcotest.(check int) "invalidation pending" 1 (Driver.pending r.driver);
  (* the IOVA stays allocated until the flush, yet it is not mapped *)
  Alcotest.check_raises "double unmap while pending" Driver.Not_mapped (fun () ->
      Driver.unmap_exn r.driver ~iova);
  Alcotest.(check int) "still one pending" 1 (Driver.pending r.driver);
  (match translate r.driver ~iova ~write:true with
  | Ok p -> Alcotest.check phys_check "STALE ACCESS SUCCEEDS (the window)" buf p
  | Error f -> Alcotest.failf "window should be open: %a" Driver.pp_fault f);
  (* 249 more unmaps trigger the batched flush *)
  for _ = 1 to 249 do
    let b = Frame_allocator.alloc_exn r.frames in
    let i = Driver.map_exn r.driver ~phys:b ~bytes:64 ~read:true ~write:true in
    Driver.unmap_exn r.driver ~iova:i
  done;
  Alcotest.(check int) "queue drained" 0 (Driver.pending r.driver);
  Alcotest.(check bool) "window closed after flush" true
    (translate r.driver ~iova ~write:true = Error Driver.No_translation)

let test_deferred_defers_iova_reuse () =
  (* The freed IOVA must not be handed out again while the stale IOTLB
     entry could still redirect the device into the new owner's memory. *)
  let r = make_rig ~policy:(Driver.Deferred { batch = 250 }) () in
  let buf = Frame_allocator.alloc_exn r.frames in
  let iova =
    Driver.map_exn r.driver ~phys:buf ~bytes:100 ~read:true ~write:true
  in
  Driver.unmap_exn r.driver ~iova;
  let buf2 = Frame_allocator.alloc_exn r.frames in
  let iova2 =
    Driver.map_exn r.driver ~phys:buf2 ~bytes:100 ~read:true ~write:true
  in
  Alcotest.(check bool) "different IOVA while flush pending" true
    (iova2 lsr Addr.page_shift <> iova lsr Addr.page_shift)

let test_explicit_flush () =
  let r = make_rig ~policy:(Driver.Deferred { batch = 250 }) () in
  let buf = Frame_allocator.alloc_exn r.frames in
  let iova =
    Driver.map_exn r.driver ~phys:buf ~bytes:100 ~read:true ~write:true
  in
  ignore (translate r.driver ~iova ~write:true);
  Driver.unmap_exn r.driver ~iova;
  Driver.flush r.driver;
  Alcotest.(check int) "queue empty" 0 (Driver.pending r.driver);
  Alcotest.(check bool) "window closed" true
    (translate r.driver ~iova ~write:true = Error Driver.No_translation)

(* Section 4: page-granularity protection leaks between buffers sharing a
   page. Buffer A is unmapped, but because buffer B still maps the same
   physical page, the device can reach A's bytes through B's IOVA page. *)
let test_same_page_leakage () =
  let r = make_rig () in
  let bufs =
    Option.get
      (Rio_memory.Dma_buffer.alloc_sub_page r.frames ~offsets:[ 0; 2048 ] ~size:1500)
  in
  match bufs with
  | [ a; b ] ->
      let iova_a =
        Driver.map_exn r.driver ~phys:a.Rio_memory.Dma_buffer.base ~bytes:1500
          ~read:true ~write:true
      in
      let _iova_b =
        Driver.map_exn r.driver ~phys:b.Rio_memory.Dma_buffer.base ~bytes:1500
          ~read:true ~write:true
      in
      Driver.unmap_exn r.driver ~iova:iova_a;
      (* A's own IOVA faults... *)
      Alcotest.(check bool) "A's iova faults" true
        (translate r.driver ~iova:iova_a ~write:true
        = Error Driver.No_translation);
      (* ...but B's IOVA page still maps the whole frame, so the device
         reaches A's first byte at B's page + A's page offset (0). *)
      let b_page = _iova_b land lnot (Addr.page_size - 1) in
      (match translate r.driver ~iova:b_page ~write:true with
      | Ok p ->
          Alcotest.check phys_check "leaks into A's bytes"
            a.Rio_memory.Dma_buffer.base p
      | Error f -> Alcotest.failf "expected page-granular leak: %a" Driver.pp_fault f)
  | _ -> Alcotest.fail "expected two buffers"

let test_breakdown_components_populated () =
  let r = make_rig () in
  for _ = 1 to 10 do
    let buf = Frame_allocator.alloc_exn r.frames in
    let iova =
      Driver.map_exn r.driver ~phys:buf ~bytes:100 ~read:true ~write:true
    in
    Driver.unmap_exn r.driver ~iova
  done;
  let bm = Driver.map_breakdown r.driver and bu = Driver.unmap_breakdown r.driver in
  Alcotest.(check int) "10 maps" 10 (Breakdown.calls bm);
  Alcotest.(check int) "10 unmaps" 10 (Breakdown.calls bu);
  Alcotest.(check bool) "alloc attributed" true
    (Breakdown.mean_cycles bm Breakdown.Iova_alloc > 0.);
  Alcotest.(check bool) "map page table ~500-600 cycles" true
    (let c = Breakdown.mean_cycles bm Breakdown.Page_table in
     c > 300. && c < 800.);
  Alcotest.(check bool) "unmap invalidation ~2100" true
    (let c = Breakdown.mean_cycles bu Breakdown.Iotlb_inv in
     c >= 2000. && c <= 2300.);
  Alcotest.(check bool) "find attributed" true
    (Breakdown.mean_cycles bu Breakdown.Iova_find > 0.)

let test_exhaustion_error () =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:100_000 in
  let coherency = Coherency.create ~coherent:false ~cost ~clock in
  let table = Arena.create ~frames ~coherency ~clock ~cost in
  let bdf = Bdf.make ~bus:0 ~device:1 ~func:0 in
  let iotlb = Iotlb.create ~capacity:16 ~clock ~cost () in
  (* tiny IOVA space: 4 pages *)
  let allocator = Allocator.create ~kind:Allocator.Linux ~limit_pfn:3 ~clock ~cost in
  let driver =
    Driver.create ~table ~allocator ~target:(Driver.Own iotlb) ~rid:(Bdf.to_rid bdf)
      ~policy:Driver.Immediate ~clock ~cost ()
  in
  let buf = Frame_allocator.alloc_exn frames in
  for _ = 1 to 4 do
    ignore (Driver.map_exn driver ~phys:buf ~bytes:10 ~read:true ~write:true : int)
  done;
  Alcotest.check_raises "exhausted" Driver.Exhausted (fun () ->
      ignore (Driver.map_exn driver ~phys:buf ~bytes:10 ~read:true ~write:true))

(* A map the frame pool runs dry on part-way is refused whole. The IOVA
   space is 1536 pages, three last-level page-table nodes of 512; the
   pool holds the root and the nodes the first map carves, nothing more.
   Reserving IOVAs around a one-page map leaves one free range,
   [1023, 1535]: its first page sits under the existing last-level node,
   the rest needs a new one. *)
let test_frame_exhaustion_atomic () =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:4 in
  let coherency = Coherency.create ~coherent:false ~cost ~clock in
  let table = Arena.create ~frames ~coherency ~clock ~cost in
  let iotlb = Iotlb.create ~capacity:16 ~clock ~cost () in
  let allocator =
    Allocator.create ~kind:Allocator.Linux ~limit_pfn:1535 ~clock ~cost
  in
  let driver =
    Driver.create ~table ~allocator ~target:(Driver.Own iotlb)
      ~rid:(Bdf.to_rid (Bdf.make ~bus:0 ~device:1 ~func:0))
      ~policy:Driver.Immediate ~clock ~cost ()
  in
  let phys = Addr.of_pfn 7 in
  let map ~bytes = Driver.map_exn driver ~phys ~bytes ~read:true ~write:true in
  let above = Allocator.alloc_pfn allocator ~size:512 in
  Alcotest.(check int) "top node's pages reserved" 1024 above;
  let iova = map ~bytes:4096 in
  Alcotest.(check int) "first map below them" 1023 (iova lsr Addr.page_shift);
  Alcotest.(check int) "pool drained" 4 (Frame_allocator.allocated frames);
  Alcotest.(check int) "the rest reserved" 0
    (Allocator.alloc_pfn allocator ~size:1023);
  Allocator.free allocator (Allocator.find_exn allocator ~pfn:above);
  Driver.unmap_exn driver ~iova;
  let live = Driver.live_mappings driver and ranges = Allocator.live allocator in
  Alcotest.check_raises "refused as IOVA exhaustion" Driver.Exhausted (fun () ->
      ignore (map ~bytes:(513 * 4096) : int));
  Alcotest.(check int) "no page left mapped" live (Driver.live_mappings driver);
  Alcotest.(check int) "no range left allocated" ranges (Allocator.live allocator);
  Alcotest.check_raises "its first page does not translate"
    Driver.Translation_fault (fun () ->
      ignore (Driver.translate_exn driver ~iova:(1023 lsl Addr.page_shift)
                ~write:false : Addr.phys));
  Alcotest.(check int) "its range is free again" 1023
    (Allocator.alloc_pfn allocator ~size:513)

let test_unmap_unknown_iova () =
  let r = make_rig () in
  Alcotest.check_raises "unmapped iova rejected" Driver.Not_mapped (fun () ->
      Driver.unmap_exn r.driver ~iova:0x5000)

let prop_map_unmap_balanced =
  QCheck.Test.make ~name:"live mappings = maps - unmaps under random churn"
    ~count:50
    QCheck.(list (int_bound 4))
    (fun ops ->
      let r = make_rig () in
      let live = ref [] in
      let expected = ref 0 in
      List.iter
        (fun op ->
          if op < 3 then begin
            let buf = Frame_allocator.alloc_exn r.frames in
            match Driver.map_exn r.driver ~phys:buf ~bytes:((op + 1) * 1000)
                    ~read:true ~write:true
            with
            | iova ->
                live := iova :: !live;
                expected := !expected + op + 1
            | exception Driver.Exhausted -> ()
          end
          else begin
            match !live with
            | [] -> ()
            | iova :: rest ->
                Driver.unmap_exn r.driver ~iova;
                live := rest
          end)
        ops;
      (* check via hardware: every live iova translates, count matches *)
      List.for_all
        (fun iova -> Result.is_ok (translate r.driver ~iova ~write:true))
        !live)

(* Rid_table against Hashtbl over random replace/remove/find: keys are
   drawn both as bus-numbered rids (low 8 bits zero, the case the high-
   bit hash exists for) and as dense small ints, across enough distinct
   keys to force several doublings and long backward-shift deletions. *)
let prop_rid_table_matches_hashtbl =
  QCheck.Test.make ~name:"rid table = Hashtbl under random churn" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 400)
        (triple (int_bound 2) (int_bound 255) bool))
    (fun ops ->
      let t = Rid_table.create () and h = Hashtbl.create 16 in
      List.iteri
        (fun i (op, k, sparse) ->
          let key = if sparse then k lsl 8 else k in
          (match op with
          | 0 | 1 ->
              Rid_table.replace t key i;
              Hashtbl.replace h key i
          | _ ->
              Rid_table.remove t key;
              Hashtbl.remove h key);
          if Rid_table.length t <> Hashtbl.length h then failwith "length";
          (* every key the model knows, and some it does not *)
          List.iter
            (fun probe ->
              let got =
                match Rid_table.find_exn t probe with
                | v -> Some v
                | exception Not_found -> None
              in
              if got <> Hashtbl.find_opt h probe then
                failwith (Printf.sprintf "find %#x" probe);
              if Rid_table.mem t probe <> Hashtbl.mem h probe then
                failwith "mem")
            (key :: (key + 256) :: List.of_seq (Hashtbl.to_seq_keys h)))
        ops;
      true)

let () =
  Alcotest.run "rio_iommu"
    [
      ( "bdf",
        [
          Alcotest.test_case "round trip" `Quick test_bdf_roundtrip;
          Alcotest.test_case "bounds" `Quick test_bdf_bounds;
          QCheck_alcotest.to_alcotest prop_rid_table_matches_hashtbl;
        ] );
      ( "translate",
        [
          Alcotest.test_case "map/translate/unmap" `Quick test_map_translate_unmap;
          Alcotest.test_case "unaligned buffers" `Quick test_unaligned_buffer_keeps_offset;
          Alcotest.test_case "multi-page buffers" `Quick test_multi_page_map;
          Alcotest.test_case "direction enforcement" `Quick test_direction_enforcement;
          Alcotest.test_case "fault counted" `Quick test_fault_counted;
          Alcotest.test_case "IOTLB caching" `Quick test_iotlb_caching_on_translate;
        ] );
      ( "driver_modes",
        [
          Alcotest.test_case "strict unmap pays invalidation" `Quick
            test_strict_unmap_charges_invalidation;
          Alcotest.test_case "deferred vulnerability window" `Quick
            test_deferred_vulnerability_window;
          Alcotest.test_case "deferred defers IOVA reuse" `Quick
            test_deferred_defers_iova_reuse;
          Alcotest.test_case "explicit flush" `Quick test_explicit_flush;
          Alcotest.test_case "same-page leakage (Section 4)" `Quick
            test_same_page_leakage;
          Alcotest.test_case "breakdown components" `Quick
            test_breakdown_components_populated;
          Alcotest.test_case "IOVA exhaustion" `Quick test_exhaustion_error;
          Alcotest.test_case "frame exhaustion is atomic" `Quick
            test_frame_exhaustion_atomic;
          Alcotest.test_case "unmap unknown iova" `Quick test_unmap_unknown_iova;
          QCheck_alcotest.to_alcotest prop_map_unmap_balanced;
        ] );
    ]
