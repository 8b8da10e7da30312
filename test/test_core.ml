(* Unit, property, and integration tests for the rIOMMU core (rio_core):
   the Figure 9 data structures, the Figure 10 hardware routines, and the
   Figure 11 driver - including byte-granular protection, burst-amortized
   invalidation, and the coherent/non-coherent cost split. *)

module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Breakdown = Rio_sim.Breakdown
module Rpte = Rio_core.Rpte
module Riova = Rio_core.Riova
module Rring = Rio_core.Rring
module Rdevice = Rio_core.Rdevice
module Riotlb = Rio_core.Riotlb
module Hw = Rio_core.Hw
module Driver = Rio_core.Driver

let phys_check = Alcotest.testable Addr.pp ( = )

(* {1 Data structures} *)

let test_rpte_directions () =
  let p = Rpte.word1 ~size:100 ~dir:Rpte.To_memory in
  Alcotest.(check bool) "rx permits device write" true (Rpte.permits p ~write:true);
  Alcotest.(check bool) "rx denies device read" false (Rpte.permits p ~write:false);
  let q = Rpte.word1 ~size:100 ~dir:Rpte.From_memory in
  Alcotest.(check bool) "tx denies device write" false (Rpte.permits q ~write:true);
  Alcotest.(check bool) "tx permits device read" true (Rpte.permits q ~write:false);
  Alcotest.(check bool) "invalid permits nothing" false
    (Rpte.permits Rpte.invalid ~write:true)

(* word1 carries size, direction and the valid bit in the hardware
   layout; reading them back recovers what was written *)
let prop_rpte_encode_roundtrip =
  QCheck.Test.make ~name:"rPTE encode/decode round trip" ~count:200
    QCheck.(pair (int_range 1 ((1 lsl 30) - 1)) (int_bound 2))
    (fun (size, d) ->
      let dir =
        match d with 0 -> Rpte.To_memory | 1 -> Rpte.From_memory | _ -> Rpte.Bidirectional
      in
      let w = Rpte.word1 ~size ~dir in
      Rpte.valid w && Rpte.size w = size
      && Rpte.permits w ~write:true = (dir <> Rpte.From_memory)
      && Rpte.permits w ~write:false = (dir <> Rpte.To_memory)
      && w = (size lsl 3) lor ((d + 1) lsl 1) lor 1)

(* pack is the encoding, the accessors the hardware's decoding *)
let prop_riova_encode_roundtrip =
  QCheck.Test.make ~name:"rIOVA encode/decode round trip" ~count:200
    QCheck.(triple (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 18) - 1))
              (int_bound ((1 lsl 14) - 1)))
    (fun (offset, rentry, rid) ->
      let v = (Riova.pack ~offset ~rentry ~rid :> int) in
      v >= 0 && Riova.offset v = offset && Riova.rentry v = rentry && Riova.rid v = rid)

let test_riova_field_bounds () =
  Alcotest.check_raises "offset too wide" (Invalid_argument "Riova.pack: offset")
    (fun () -> ignore (Riova.pack ~offset:(1 lsl 30) ~rentry:0 ~rid:0));
  Alcotest.check_raises "rentry too wide" (Invalid_argument "Riova.pack: rentry")
    (fun () -> ignore (Riova.pack ~offset:0 ~rentry:(1 lsl 18) ~rid:0));
  Alcotest.check_raises "rid too wide" (Invalid_argument "Riova.pack: rid")
    (fun () -> ignore (Riova.pack ~offset:0 ~rentry:0 ~rid:(1 lsl 14)));
  (* a word with bits above the layout names no ring *)
  Alcotest.(check bool) "negative word has a negative ring" true (Riova.rid (-1) < 0)

(* {1 Test rig} *)

type rig = {
  clock : Cycles.t;
  frames : Frame_allocator.t;
  coherency : Coherency.t;
  hw : Hw.t;
  driver : Driver.t;
  bdf : int;
}

let make_rig ?(coherent = true) ?(ring_sizes = [ 8; 8 ]) () =
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:200_000 in
  let coherency = Coherency.create ~coherent ~cost ~clock in
  let bdf = 0x300 in
  let device = Rdevice.create ~rid:bdf ~ring_sizes ~frames ~coherency in
  let hw = Hw.create ~clock ~cost in
  Hw.attach hw device;
  let driver = Driver.create ~device ~hw ~clock ~cost in
  { clock; frames; coherency; hw; driver; bdf }

let map_buf r ?(rid = 0) ?(size = 1500) ?(dir = Rpte.Bidirectional) () =
  let buf = Frame_allocator.alloc_exn r.frames in
  (buf, Driver.map_exn r.driver ~rid ~phys:buf ~size ~dir)

(* One DMA with its fault class as a value: the engine raises the
   constant [Translation_fault] and names the class in [last_fault]. *)
let rtranslate hw ~bdf ~iova ~write =
  match Hw.rtranslate_exn hw ~bdf ~iova ~write with
  | p -> Ok p
  | exception Hw.Translation_fault -> Error (Hw.last_fault hw)

(* {1 Translation} *)

let test_map_translate () =
  let r = make_rig () in
  let buf, iova = map_buf r () in
  (match rtranslate r.hw ~bdf:r.bdf ~iova ~write:true with
  | Ok p -> Alcotest.check phys_check "base" buf p
  | Error f -> Alcotest.failf "fault: %a" Hw.pp_fault f);
  match rtranslate r.hw ~bdf:r.bdf ~iova:(iova + 1000) ~write:true with
  | Ok p -> Alcotest.check phys_check "offset added" (Addr.add buf 1000) p
  | Error f -> Alcotest.failf "fault: %a" Hw.pp_fault f

let test_byte_granular_protection () =
  (* Two sub-page buffers on one frame: unlike the baseline IOMMU
     (test_same_page_leakage in test_iommu.ml), the rIOMMU confines the
     device to the exact byte range. *)
  let r = make_rig () in
  let bufs =
    Option.get
      (Rio_memory.Dma_buffer.alloc_sub_page r.frames ~offsets:[ 0; 2048 ] ~size:1500)
  in
  match bufs with
  | [ a; b ] ->
      let iova_b =
        Driver.map_exn r.driver ~rid:0 ~phys:b.Rio_memory.Dma_buffer.base ~size:1500
          ~dir:Rpte.Bidirectional
      in
      (* B's window reaches exactly its 1500 bytes... *)
      Alcotest.(check bool) "last byte ok" true
        (Result.is_ok
           (rtranslate r.hw ~bdf:r.bdf ~iova:(iova_b + 1499)
              ~write:true));
      (* ...and cannot reach A's bytes on the same page. *)
      Alcotest.(check bool) "offset beyond size faults" true
        (rtranslate r.hw ~bdf:r.bdf ~iova:(iova_b + 1500)
           ~write:true
        = Error Hw.Offset_out_of_range);
      ignore a
  | _ -> Alcotest.fail "expected two buffers"

let test_direction_enforcement () =
  let r = make_rig () in
  let _, iova = map_buf r ~dir:Rpte.From_memory () in
  Alcotest.(check bool) "tx read ok" true
    (Result.is_ok (rtranslate r.hw ~bdf:r.bdf ~iova ~write:false));
  Alcotest.(check bool) "tx write denied" true
    (rtranslate r.hw ~bdf:r.bdf ~iova ~write:true = Error Hw.Direction_denied)

let test_fault_conditions () =
  let r = make_rig () in
  let _, iova = map_buf r () in
  Alcotest.(check bool) "unknown device" true
    (rtranslate r.hw ~bdf:0xBEEF ~iova ~write:true = Error Hw.Unknown_device);
  let bad_ring = (Riova.pack ~offset:0 ~rentry:0 ~rid:7 :> int) in
  Alcotest.(check bool) "bad ring id" true
    (rtranslate r.hw ~bdf:r.bdf ~iova:bad_ring ~write:true = Error Hw.Bad_ring);
  let bad_entry = (Riova.pack ~offset:0 ~rentry:200 ~rid:0 :> int) in
  Alcotest.(check bool) "bad rentry" true
    (rtranslate r.hw ~bdf:r.bdf ~iova:bad_entry ~write:true = Error Hw.Bad_entry);
  let unmapped = (Riova.pack ~offset:0 ~rentry:5 ~rid:0 :> int) in
  Alcotest.(check bool) "invalid rPTE" true
    (rtranslate r.hw ~bdf:r.bdf ~iova:unmapped ~write:true = Error Hw.Invalid_entry);
  Alcotest.(check bool) "faults counted" true (Hw.faults r.hw >= 4)

(* {1 Sequential prefetch} *)

let test_sequential_prefetch () =
  let r = make_rig ~ring_sizes:[ 64 ] () in
  (* map a run of buffers, then translate them in ring order *)
  let iovas =
    List.init 32 (fun _ ->
        let _, iova = map_buf r () in
        iova)
  in
  List.iter
    (fun iova ->
      match rtranslate r.hw ~bdf:r.bdf ~iova ~write:true with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "fault: %a" Hw.pp_fault f)
    iovas;
  (* first access walks; the remaining 31 ride the prefetched next *)
  Alcotest.(check int) "one walk only" 1 (Hw.walks r.hw);
  Alcotest.(check int) "31 prefetch hits" 31 (Hw.prefetch_hits r.hw)

let test_out_of_order_access_legal () =
  (* §4 Applicability: mapped rIOVAs may be used out of order; the only
     penalty is a table walk instead of a prefetch hit. *)
  let r = make_rig ~ring_sizes:[ 16 ] () in
  let iovas = Array.init 8 (fun _ -> snd (map_buf r ())) in
  let order = [ 3; 0; 5; 1; 7; 2; 6; 4 ] in
  List.iter
    (fun i ->
      match rtranslate r.hw ~bdf:r.bdf ~iova:iovas.(i) ~write:true with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "out-of-order access faulted: %a" Hw.pp_fault f)
    order;
  Alcotest.(check bool) "walks instead of prefetch hits" true (Hw.walks r.hw >= 7)

(* {1 Driver semantics} *)

let test_ring_overflow () =
  let r = make_rig ~ring_sizes:[ 4 ] () in
  for _ = 1 to 4 do
    ignore (map_buf r ())
  done;
  let buf = Frame_allocator.alloc_exn r.frames in
  Alcotest.check_raises "fifth map overflows" Driver.Overflow (fun () ->
      ignore (Driver.map_exn r.driver ~rid:0 ~phys:buf ~size:100 ~dir:Rpte.Bidirectional));
  Alcotest.(check int) "nmapped at capacity" 4 (Driver.nmapped r.driver ~rid:0);
  (* unmapping out of order frees a slot, but not the tail's: the next
     map must overflow rather than re-map the live entry 0 *)
  let r = make_rig ~ring_sizes:[ 4 ] () in
  let buf0, iova0 = map_buf r () in
  let _, iova1 = map_buf r () in
  ignore (map_buf r ());
  ignore (map_buf r ());
  Driver.unmap_exn r.driver iova1 ~end_of_burst:true;
  Alcotest.check_raises "tail still live overflows" Driver.Overflow (fun () ->
      ignore (Driver.map_exn r.driver ~rid:0 ~phys:buf ~size:100 ~dir:Rpte.Bidirectional));
  match rtranslate r.hw ~bdf:r.bdf ~iova:iova0 ~write:true with
  | Ok p -> Alcotest.check phys_check "entry 0 keeps its buffer" buf0 p
  | Error f -> Alcotest.failf "fault: %a" Hw.pp_fault f

let test_unmap_invalidates () =
  let r = make_rig () in
  let _, iova = map_buf r () in
  ignore (rtranslate r.hw ~bdf:r.bdf ~iova ~write:true);
  Driver.unmap_exn r.driver iova ~end_of_burst:true;
  Alcotest.(check bool) "access faults after unmap+invalidate" true
    (rtranslate r.hw ~bdf:r.bdf ~iova ~write:true = Error Hw.Invalid_entry);
  Alcotest.check_raises "double unmap rejected" Driver.Not_mapped (fun () ->
      Driver.unmap_exn r.driver iova ~end_of_burst:false)

let test_implicit_invalidation_within_burst () =
  (* The single rIOTLB entry per ring means translating entry k+1 makes
     entry k unreachable - no explicit invalidation needed mid-burst. *)
  let r = make_rig ~ring_sizes:[ 8 ] () in
  let _, iova0 = map_buf r () in
  let _, iova1 = map_buf r () in
  ignore (rtranslate r.hw ~bdf:r.bdf ~iova:iova0 ~write:true);
  (* unmap entry 0 without end_of_burst; device moves on to entry 1 *)
  Driver.unmap_exn r.driver iova0 ~end_of_burst:false;
  ignore (rtranslate r.hw ~bdf:r.bdf ~iova:iova1 ~write:true);
  (* entry 0 now requires a fresh walk, which sees the invalid rPTE *)
  Alcotest.(check bool) "stale entry 0 unreachable" true
    (rtranslate r.hw ~bdf:r.bdf ~iova:iova0 ~write:true = Error Hw.Invalid_entry)

let test_burst_amortizes_invalidation () =
  let r = make_rig ~ring_sizes:[ 256 ] () in
  let iovas = List.init 200 (fun _ -> snd (map_buf r ())) in
  let n = List.length iovas in
  List.iteri
    (fun i iova -> Driver.unmap_exn r.driver iova ~end_of_burst:(i = n - 1))
    iovas;
  let bu = Driver.unmap_breakdown r.driver in
  let inv = Cost_model.default.Cost_model.iotlb_invalidate in
  Alcotest.(check int) "exactly one invalidation for the whole burst" inv
    (Breakdown.total_cycles bu Breakdown.Iotlb_inv);
  Alcotest.(check bool)
    (Printf.sprintf "amortized invalidation ~%.0f cycles/unmap (vs %d strict)"
       (Breakdown.mean_cycles bu Breakdown.Iotlb_inv)
       inv)
    true
    (Breakdown.mean_cycles bu Breakdown.Iotlb_inv < 15.)

let test_coherency_cost_split () =
  (* riommu vs riommu-: per map+unmap pair the non-coherent variant adds
     two (flush + extra barrier) pairs, ~500 cycles; over a packet's two
     IOVAs this is the paper's ~1.1K cycles. *)
  let measure coherent =
    let r = make_rig ~coherent () in
    let buf = Frame_allocator.alloc_exn r.frames in
    let _, cost =
      Cycles.measure r.clock (fun () ->
          let iova =
            Driver.map_exn r.driver ~rid:0 ~phys:buf ~size:1500 ~dir:Rpte.Bidirectional
          in
          Driver.unmap_exn r.driver iova ~end_of_burst:false)
    in
    cost
  in
  let coherent = measure true and noncoherent = measure false in
  let cm = Cost_model.default in
  let expected_delta =
    2 * (cm.Cost_model.cacheline_flush + cm.Cost_model.barrier)
  in
  Alcotest.(check int)
    (Printf.sprintf "riommu- adds %d cycles per map+unmap" expected_delta)
    expected_delta (noncoherent - coherent);
  Alcotest.(check bool) "coherent pair is cheap (~100-200 cycles)" true
    (coherent < 300)

let test_map_unmap_breakdowns () =
  let r = make_rig () in
  for _ = 1 to 10 do
    let _, iova = map_buf r () in
    Driver.unmap_exn r.driver iova ~end_of_burst:false
  done;
  let bm = Driver.map_breakdown r.driver in
  Alcotest.(check int) "calls" 10 (Breakdown.calls bm);
  Alcotest.(check bool) "riommu iova alloc is trivial (two integers)" true
    (Breakdown.mean_cycles bm Breakdown.Iova_alloc < 20.);
  Alcotest.(check bool) "riommu map total ~100 cycles" true
    (List.fold_left
       (fun acc c -> acc +. Breakdown.mean_cycles bm c)
       0. Breakdown.all_components
    < 200.)

let test_multi_ring_independence () =
  let r = make_rig ~ring_sizes:[ 4; 4 ] () in
  let _, iova_r0 = map_buf r ~rid:0 () in
  let buf1, iova_r1 = map_buf r ~rid:1 () in
  ignore (rtranslate r.hw ~bdf:r.bdf ~iova:iova_r0 ~write:true);
  ignore (rtranslate r.hw ~bdf:r.bdf ~iova:iova_r1 ~write:true);
  (* invalidating ring 0's entry leaves ring 1's cached entry intact *)
  Driver.unmap_exn r.driver iova_r0 ~end_of_burst:true;
  let riotlb = Hw.riotlb r.hw in
  let hits = Riotlb.hits riotlb in
  (match rtranslate r.hw ~bdf:r.bdf ~iova:iova_r1 ~write:true with
  | Ok p -> Alcotest.check phys_check "ring 1 unaffected" buf1 p
  | Error f -> Alcotest.failf "fault: %a" Hw.pp_fault f);
  Alcotest.(check int) "ring 1 still cached (no new walk)" (hits + 1)
    (Riotlb.hits riotlb)

let test_multi_device_isolation () =
  (* two devices share the rIOMMU hardware; each is confined to its own
     rDEVICE's flat tables *)
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:50_000 in
  let coherency = Coherency.create ~coherent:true ~cost ~clock in
  let dev_a = Rdevice.create ~rid:0x100 ~ring_sizes:[ 8 ] ~frames ~coherency in
  let dev_b = Rdevice.create ~rid:0x200 ~ring_sizes:[ 8 ] ~frames ~coherency in
  let hw = Hw.create ~clock ~cost in
  Hw.attach hw dev_a;
  Hw.attach hw dev_b;
  let driver_a = Driver.create ~device:dev_a ~hw ~clock ~cost in
  let buf = Frame_allocator.alloc_exn frames in
  let iova =
    Driver.map_exn driver_a ~rid:0 ~phys:buf ~size:100 ~dir:Rpte.Bidirectional
  in
  Alcotest.(check bool) "device A resolves its mapping" true
    (Result.is_ok (rtranslate hw ~bdf:0x100 ~iova ~write:true));
  (* device B presenting the same rIOVA hits ITS (empty) flat table *)
  Alcotest.(check bool) "device B cannot use A's rIOVA" true
    (rtranslate hw ~bdf:0x200 ~iova ~write:true = Error Hw.Invalid_entry);
  (* detach revokes wholesale *)
  Hw.detach hw ~rid:0x100;
  Alcotest.(check bool) "detached device faults" true
    (rtranslate hw ~bdf:0x100 ~iova ~write:true = Error Hw.Unknown_device)

let test_riotlb_one_entry_per_ring () =
  let r = make_rig ~ring_sizes:[ 64 ] () in
  for _ = 1 to 32 do
    let _, iova = map_buf r () in
    ignore (rtranslate r.hw ~bdf:r.bdf ~iova ~write:true)
  done;
  Alcotest.(check int) "a single riotlb entry" 1 (Riotlb.entries (Hw.riotlb r.hw))

let prop_translate_matches_mapping =
  QCheck.Test.make ~name:"rtranslate = phys + offset for every valid mapping"
    ~count:100
    QCheck.(small_list (pair (int_range 1 8000) (int_bound 2)))
    (fun specs ->
      let r = make_rig ~ring_sizes:[ 512 ] () in
      let mapped =
        List.filter_map
          (fun (size, d) ->
            let dir =
              match d with
              | 0 -> Rpte.To_memory
              | 1 -> Rpte.From_memory
              | _ -> Rpte.Bidirectional
            in
            let buf = Frame_allocator.alloc_exn r.frames in
            match Driver.map_exn r.driver ~rid:0 ~phys:buf ~size ~dir with
            | iova -> Some (buf, size, dir, iova)
            | exception Driver.Overflow -> None)
          specs
      in
      List.for_all
        (fun (buf, size, dir, iova) ->
          let write = dir <> Rpte.From_memory in
          let off = (size - 1) / 2 in
          match rtranslate r.hw ~bdf:r.bdf ~iova:(iova + off) ~write with
          | Ok p -> p = Addr.add buf off
          | Error _ -> false)
        mapped)

let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring tail wraps and nmapped stays bounded" ~count:50
    QCheck.(int_range 1 200)
    (fun churn ->
      let r = make_rig ~ring_sizes:[ 8 ] () in
      let ok = ref true in
      for _ = 1 to churn do
        let buf = Frame_allocator.alloc_exn r.frames in
        match Driver.map_exn r.driver ~rid:0 ~phys:buf ~size:100 ~dir:Rpte.Bidirectional with
        | iova ->
            if Result.is_error (rtranslate r.hw ~bdf:r.bdf ~iova ~write:true) then
              ok := false;
            (match Driver.unmap_exn r.driver iova ~end_of_burst:true with
            | () -> ()
            | exception Driver.Not_mapped -> ok := false)
        | exception Driver.Overflow -> ok := false
      done;
      !ok && Driver.nmapped r.driver ~rid:0 = 0)

let () =
  Alcotest.run "rio_core"
    [
      ( "structures",
        [
          Alcotest.test_case "rPTE directions" `Quick test_rpte_directions;
          QCheck_alcotest.to_alcotest prop_rpte_encode_roundtrip;
          QCheck_alcotest.to_alcotest prop_riova_encode_roundtrip;
          Alcotest.test_case "rIOVA field bounds" `Quick test_riova_field_bounds;
        ] );
      ( "translation",
        [
          Alcotest.test_case "map/translate" `Quick test_map_translate;
          Alcotest.test_case "byte-granular protection" `Quick
            test_byte_granular_protection;
          Alcotest.test_case "direction enforcement" `Quick test_direction_enforcement;
          Alcotest.test_case "fault conditions" `Quick test_fault_conditions;
          QCheck_alcotest.to_alcotest prop_translate_matches_mapping;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "sequential rides prefetch" `Quick test_sequential_prefetch;
          Alcotest.test_case "out-of-order is legal" `Quick test_out_of_order_access_legal;
        ] );
      ( "driver",
        [
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "unmap + invalidate" `Quick test_unmap_invalidates;
          Alcotest.test_case "implicit invalidation within burst" `Quick
            test_implicit_invalidation_within_burst;
          Alcotest.test_case "burst amortizes invalidation" `Quick
            test_burst_amortizes_invalidation;
          Alcotest.test_case "coherency cost split (riommu vs riommu-)" `Quick
            test_coherency_cost_split;
          Alcotest.test_case "breakdowns" `Quick test_map_unmap_breakdowns;
          Alcotest.test_case "multi-ring independence" `Quick test_multi_ring_independence;
          Alcotest.test_case "multi-device isolation" `Quick test_multi_device_isolation;
          Alcotest.test_case "one riotlb entry per ring" `Quick
            test_riotlb_one_entry_per_ring;
          QCheck_alcotest.to_alcotest prop_ring_wraparound;
        ] );
    ]
