(* Unit tests for the protection facade (rio_protect): mode metadata and
   the uniform map/translate/unmap behaviour across all nine modes. *)

module Addr = Rio_memory.Addr
module Coherency = Rio_memory.Coherency
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module I_driver = Rio_domain.Driver
module Rpte = Rio_core.Rpte
module Riova = Rio_core.Riova
module Rdevice = Rio_core.Rdevice
module Hw = Rio_core.Hw
module R_driver = Rio_core.Driver

let test_mode_names_roundtrip () =
  List.iter
    (fun m ->
      match Mode.of_name (Mode.name m) with
      | Some m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | None -> Alcotest.failf "mode %s does not parse" (Mode.name m))
    Mode.all;
  Alcotest.(check bool) "unknown" true (Mode.of_name "bogus" = None)

let test_mode_classification () =
  Alcotest.(check bool) "strict+ fast alloc" true
    (Mode.uses_fast_allocator Mode.Strict_plus);
  Alcotest.(check bool) "riommu coherent" true (Mode.coherent_walk Mode.Riommu);
  Alcotest.(check bool) "riommu- not coherent" false
    (Mode.coherent_walk Mode.Riommu_minus);
  Alcotest.(check int) "seven evaluated modes" 7 (List.length Mode.evaluated)

(* The expected protection of each mode: whether DMAs are restricted at
   all (everything but none and the pass-throughs), and whether they are
   restricted with no stale-translation window (the strict variants and
   both rIOMMU variants; the deferred variants trade this off). *)
let is_protected = function
  | Mode.None_ | Hw_passthrough | Sw_passthrough -> false
  | Strict | Strict_plus | Defer | Defer_plus | Riommu_minus | Riommu -> true

let is_safe = function
  | Mode.Strict | Strict_plus | Riommu_minus | Riommu -> true
  | None_ | Hw_passthrough | Sw_passthrough | Defer | Defer_plus -> false

let make mode = Dma_api.create (Dma_api.default_config ~mode)

let roundtrip mode () =
  let api = make mode in
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let iova = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional in
  Alcotest.(check int) "one live mapping" 1 (Dma_api.live_mappings api);
  (match Dma_api.translate_exn api ~iova:(iova + 100) ~write:true with
  | p ->
      Alcotest.(check int) "translates to buffer+offset"
        (Addr.to_int buf + 100) (Addr.to_int p)
  | exception I_driver.Translation_fault ->
      Alcotest.failf "%s: unexpected fault %s" (Mode.name mode) (Dma_api.last_fault api));
  Dma_api.unmap_exn api ~iova ~end_of_burst:true;
  Alcotest.(check int) "no live mappings" 0 (Dma_api.live_mappings api);
  Dma_api.flush api;
  let safe = is_safe mode || not (is_protected mode) in
  let blocked =
    match Dma_api.translate_exn api ~iova ~write:true with
    | (_ : Addr.phys) -> false
    | exception I_driver.Translation_fault -> true
  in
  if is_protected mode then
    Alcotest.(check bool)
      (Printf.sprintf "%s blocks after unmap+flush" (Mode.name mode))
      true blocked
  else Alcotest.(check bool) "unprotected never blocks" false blocked;
  ignore safe

let test_driver_cycle_ordering () =
  (* the per-pair protection cost must rank: none <= pt < riommu <
     riommu- < defer+ <= strict+ and strict the worst of the safe four
     in steady state. Use a small churn to stabilize. *)
  let cost_of mode =
    let api = make mode in
    let frames = Dma_api.frames api in
    for _ = 1 to 50 do
      let buf = Rio_memory.Frame_allocator.alloc_exn frames in
      let iova = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional in
      Dma_api.unmap_exn api ~iova ~end_of_burst:true;
      Rio_memory.Frame_allocator.free frames buf
    done;
    Dma_api.reset_driver_cycles api;
    for _ = 1 to 100 do
      let buf = Rio_memory.Frame_allocator.alloc_exn frames in
      let iova = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional in
      Dma_api.unmap_exn api ~iova ~end_of_burst:true;
      Rio_memory.Frame_allocator.free frames buf
    done;
    Dma_api.driver_cycles api / 100
  in
  let none = cost_of Mode.None_ in
  let hwpt = cost_of Mode.Hw_passthrough in
  let riommu = cost_of Mode.Riommu in
  let riommu_m = cost_of Mode.Riommu_minus in
  let strict = cost_of Mode.Strict in
  Alcotest.(check int) "none costs nothing" 0 none;
  Alcotest.(check bool) "pt adds the kernel abstraction cost" true (hwpt > 0);
  Alcotest.(check bool) "riommu < riommu-" true (riommu < riommu_m);
  Alcotest.(check bool) "riommu- < strict" true (riommu_m < strict)

(* Out-of-range rIOVAs are typed outcomes, never stray exceptions: an
   unmap past the ring's end or of a ring the device lacks is
   [Not_mapped]. A map into a ring the device lacks is the driver's own
   bug and stays [Invalid_argument]. (An offset that carries out of the
   rIOVA's 30-bit field is the DMA engine's check: test_device.) *)
let test_out_of_range_riovas () =
  let clock = Cycles.create () and cost = Cost_model.default in
  let frames = Frame_allocator.create ~total_frames:1_000 in
  let coherency = Coherency.create ~coherent:true ~cost ~clock in
  let device = Rdevice.create ~rid:0x300 ~ring_sizes:[ 8 ] ~frames ~coherency in
  let hw = Hw.create ~clock ~cost in
  Hw.attach hw device;
  let driver = R_driver.create ~device ~hw ~clock ~cost in
  let buf = Frame_allocator.alloc_exn frames in
  let past_end = (Riova.pack ~offset:0 ~rentry:8 ~rid:0 :> int) in
  let no_ring = (Riova.pack ~offset:0 ~rentry:0 ~rid:1 :> int) in
  Alcotest.check_raises "unmap past the ring's end" R_driver.Not_mapped (fun () ->
      R_driver.unmap_exn driver past_end ~end_of_burst:true);
  Alcotest.check_raises "unmap of a missing ring" R_driver.Not_mapped (fun () ->
      R_driver.unmap_exn driver no_ring ~end_of_burst:true);
  Alcotest.check_raises "map to a missing ring"
    (Invalid_argument "Rdevice.ring: rid range") (fun () ->
      ignore (R_driver.map_exn driver ~rid:1 ~phys:buf ~size:100 ~dir:Rpte.Bidirectional));
  let api = make Mode.Riommu in
  Alcotest.check_raises "Dma_api unmap of a missing ring" I_driver.Not_mapped (fun () ->
      Dma_api.unmap_exn api ~iova:no_ring ~end_of_burst:true)

let test_swpt_charges_walks () =
  (* SWpt translates through a real identity IOTLB: the first touch of a
     page costs a walk, later ones hit. *)
  let api = make Mode.Sw_passthrough in
  let clock = Dma_api.clock api in
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let iova = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:100 ~dir:Rpte.Bidirectional in
  let _, first =
    Rio_sim.Cycles.measure clock (fun () -> Dma_api.translate_exn api ~iova ~write:false)
  in
  let _, second =
    Rio_sim.Cycles.measure clock (fun () -> Dma_api.translate_exn api ~iova ~write:false)
  in
  Alcotest.(check bool) "first pays a walk" true (first > second);
  Alcotest.(check bool) "second is cheap" true (second < 100)

(* None and the pass-throughs keep only a count of live buffers: an
   unmap with nothing live is stray, and is [Not_mapped] as in the
   protected modes, with the count left at zero. *)
let test_passthrough_stray_unmap () =
  List.iter
    (fun mode ->
      let api = make mode in
      let name = Mode.name mode in
      Alcotest.check_raises (name ^ ": stray unmap") I_driver.Not_mapped (fun () ->
          Dma_api.unmap_exn api ~iova:0x5000 ~end_of_burst:true);
      let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
      let addr = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:64 ~dir:Rpte.Bidirectional in
      Dma_api.unmap_exn api ~iova:addr ~end_of_burst:true;
      Alcotest.check_raises (name ^ ": second unmap") I_driver.Not_mapped (fun () ->
          Dma_api.unmap_exn api ~iova:addr ~end_of_burst:true);
      Alcotest.(check int) (name ^ ": live stays 0") 0 (Dma_api.live_mappings api))
    [ Mode.None_; Mode.Hw_passthrough; Mode.Sw_passthrough ]

(* {2 The op log is an observer}

   Logging lives in the one body of each op, so attaching a log must
   change nothing else: twin instances, one with a log attached, driven
   through the same ops agree op for op on outcomes, clocks,
   [driver_cycles], faults and live counts. The log gains exactly one
   entry per logged op, stamped with the clock after it: a map or unmap
   when it succeeds, every translate with its [ok] flag. *)

type op =
  | O_map of int * int  (* ring, bytes *)
  | O_unmap of int  (* pick among ever-mapped addresses *)
  | O_translate of int * int * bool  (* pick, offset, write *)

let op_to_string = function
  | O_map (r, b) -> Printf.sprintf "map(r%d,%d)" r b
  | O_unmap k -> Printf.sprintf "unmap(#%d)" k
  | O_translate (p, o, w) -> Printf.sprintf "translate(#%d+%d,%s)" p o (if w then "w" else "r")

let ops_arb =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun r b -> O_map (r, b)) (int_bound 1) (int_range 1 9000));
          (2, map (fun k -> O_unmap k) (int_bound 1000));
          ( 4,
            map3
              (fun p o w -> O_translate (p, o, w))
              (int_bound 1000) (int_bound 12_000) bool );
        ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 1 200) op)

module Op_log = Rio_protect.Op_log

let check_log_observer mode ops =
  (* small rings and deferred batches so sequences reach overflow and
     the batched flush *)
  let cfg = { (Dma_api.default_config ~mode) with ring_sizes = [ 8; 8 ]; defer_batch = 8 } in
  let d = Dma_api.create cfg and l = Dma_api.create cfg in
  let log = Op_log.create () in
  Dma_api.set_log l (Some log);
  let fail fmt = Printf.ksprintf failwith ("%s " ^^ fmt) (Mode.name mode) in
  let seen = ref [||] in
  let pick k = if !seen = [||] then 0x5000 + k else !seen.(k mod Array.length !seen) in
  let map api ~ring ~phys ~bytes =
    match Dma_api.map_exn api ~ring ~phys ~bytes ~dir:Rpte.Bidirectional with
    | a -> Ok a
    | exception I_driver.Exhausted -> Error "exhausted"
    | exception R_driver.Overflow -> Error "overflow"
  in
  let unmap api ~iova ~end_of_burst =
    match Dma_api.unmap_exn api ~iova ~end_of_burst with
    | () -> Ok 0
    | exception I_driver.Not_mapped -> Error "not mapped"
  in
  let translate api ~iova ~write =
    match Dma_api.translate_exn api ~iova ~write with
    | phys -> Ok (Addr.to_int phys)
    | exception I_driver.Translation_fault -> Error (Dma_api.last_fault api)
  in
  List.iteri
    (fun i op ->
      let phys = Addr.phys_of_int ((i + 1) * 0x3000) in
      let before = Op_log.length log in
      let via_d, via_l, expected =
        match op with
        | O_map (ring, bytes) ->
            let via_d = map d ~ring ~phys ~bytes and via_l = map l ~ring ~phys ~bytes in
            Result.iter (fun a -> seen := Array.append !seen [| a |]) via_l;
            ( via_d,
              via_l,
              Result.map (fun addr -> Op_log.Map { ring; addr; bytes }) via_l |> Result.to_option )
        | O_unmap k ->
            let iova = pick k and end_of_burst = k land 1 = 0 in
            let via_l = unmap l ~iova ~end_of_burst in
            ( unmap d ~iova ~end_of_burst,
              via_l,
              if Result.is_ok via_l then Some (Op_log.Unmap { addr = iova }) else None )
        | O_translate (p, offset, write) ->
            let iova = pick p + offset in
            let via_l = translate l ~iova ~write in
            ( translate d ~iova ~write,
              via_l,
              Some (Op_log.Access { addr = iova; offset = 0; write; ok = Result.is_ok via_l }) )
      in
      if via_d <> via_l then fail "op %d %s: outcomes differ" i (op_to_string op);
      (match (expected, List.rev (Op_log.entries log)) with
      | None, _ ->
          if Op_log.length log <> before then fail "op %d %s: logged a failure" i (op_to_string op)
      | Some op', e :: _ ->
          if Op_log.length log <> before + 1 || e.Op_log.op <> op'
             || e.Op_log.cycles <> Cycles.now (Dma_api.clock l)
          then fail "op %d %s: wrong log entry" i (op_to_string op)
      | Some _, [] -> fail "op %d %s: nothing logged" i (op_to_string op));
      if Cycles.now (Dma_api.clock d) <> Cycles.now (Dma_api.clock l) then
        fail "after op %d: clocks differ" i;
      if Dma_api.driver_cycles d <> Dma_api.driver_cycles l then
        fail "after op %d: driver cycles differ" i;
      if Dma_api.faults d <> Dma_api.faults l then fail "after op %d: faults differ" i;
      if Dma_api.live_mappings d <> Dma_api.live_mappings l then
        fail "after op %d: live mappings differ" i)
    ops

let prop_log_observer =
  QCheck.Test.make ~count:30 ~name:"op log is an observer (twin replay)"
    ops_arb (fun ops ->
      List.iter (fun mode -> check_log_observer mode ops) Mode.all;
      true)

(* The rIOMMU arms of the [_exn] forms allocate nothing after warm-up:
   FIFO ring discipline (map a burst, the device translates it in ring
   order, unmap it oldest first), words measured as Gc.minor_words
   deltas less the probe's own overhead, the way the service's
   allocation probe measures its ops. *)
let words_per_op mode =
  let api = make mode in
  let buf = Frame_allocator.alloc_exn (Dma_api.frames api) in
  let n = 256 in
  let addrs = Array.make n 0 in
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let per_op delta = Float.max 0. ((delta -. overhead) /. float_of_int n) in
  let round () =
    let a = Gc.minor_words () in
    for i = 0 to n - 1 do
      addrs.(i) <- Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional
    done;
    let b = Gc.minor_words () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (Dma_api.translate_exn api ~iova:(addrs.(i) + 64) ~write:true))
    done;
    let c = Gc.minor_words () in
    for i = 0 to n - 1 do
      Dma_api.unmap_exn api ~iova:addrs.(i) ~end_of_burst:(i = n - 1)
    done;
    let d = Gc.minor_words () in
    (per_op (b -. a), per_op (c -. b), per_op (d -. c))
  in
  ignore (round ());
  round ()

let test_riommu_words_per_op () =
  List.iter
    (fun mode ->
      let map, translate, unmap = words_per_op mode in
      List.iter
        (fun (op, w) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s words/op" (Mode.name mode) op)
            "0.00" (Printf.sprintf "%.2f" w))
        [ ("map_exn", map); ("translate_exn", translate); ("unmap_exn", unmap) ])
    [ Mode.Riommu; Mode.Riommu_minus ]

(* Cross-mode agreement: every device access inside a mapped buffer's
   window resolves to the buffer's physical byte - identically - under
   the baseline IOMMU and the rIOMMU; unmapping revokes in both. *)
let prop_strict_riommu_agree =
  QCheck.Test.make ~name:"strict and riommu agree on in-window accesses" ~count:40
    QCheck.(small_list (pair (int_range 1 4000) (int_bound 3)))
    (fun specs ->
      let check mode =
        let api = make mode in
        let ok = ref true in
        let mapped =
          List.filter_map
            (fun (bytes, op) ->
              let bytes = max 1 bytes (* range shrinkers can escape *) in
              let phys = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
              match Dma_api.map_exn api ~ring:0 ~phys ~bytes ~dir:Rpte.Bidirectional with
              | addr -> Some (addr, phys, bytes, op)
              | exception (I_driver.Exhausted | R_driver.Overflow) -> None)
            specs
        in
        List.iter
          (fun (addr, phys, bytes, op) ->
            let offset = op * (bytes - 1) / 3 in
            match Dma_api.translate_exn api ~iova:(addr + offset) ~write:true with
            | p ->
                if Addr.to_int p <> Addr.to_int phys + offset then ok := false
            | exception I_driver.Translation_fault -> ok := false)
          mapped;
        List.iter
          (fun (iova, _, _, _) ->
            try Dma_api.unmap_exn api ~iova ~end_of_burst:true
            with I_driver.Not_mapped -> ok := false)
          mapped;
        !ok && Dma_api.live_mappings api = 0
      in
      check Mode.Strict && check Mode.Riommu && check Mode.Defer_plus)

let test_riommu_overflow_surfaces () =
  let api =
    Dma_api.create
      { (Dma_api.default_config ~mode:Mode.Riommu) with Dma_api.ring_sizes = [ 2; 2 ] }
  in
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let map () =
    ignore (Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:64 ~dir:Rpte.Bidirectional : int)
  in
  map ();
  map ();
  Alcotest.check_raises "3rd overflows" R_driver.Overflow map

(* {1 Op_log} *)

let test_op_log_records_driver_and_device_ops () =
  let api = make Mode.Strict in
  let log = Rio_protect.Op_log.create () in
  Dma_api.set_log api (Some log);
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let iova = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional in
  let translate iova =
    try ignore (Dma_api.translate_exn api ~iova ~write:true : Addr.phys)
    with I_driver.Translation_fault -> ()
  in
  translate (iova + 64);
  Dma_api.unmap_exn api ~iova ~end_of_burst:true;
  translate iova;
  let ops = Rio_protect.Op_log.entries log in
  Alcotest.(check int) "four events" 4 (List.length ops);
  (* a device access is logged as its whole address, at offset 0 *)
  (match List.map (fun e -> e.Rio_protect.Op_log.op) ops with
  | [
   Rio_protect.Op_log.Map { addr = a; bytes = 1500; ring = 0 };
   Rio_protect.Op_log.Access { ok = true; addr = hit; offset = 0; _ };
   Rio_protect.Op_log.Unmap { addr = a' };
   Rio_protect.Op_log.Access { ok = false; addr = miss; offset = 0; _ };
  ] ->
      Alcotest.(check int) "map/unmap address agree" a a';
      Alcotest.(check int) "access address includes the offset" (a + 64) hit;
      Alcotest.(check int) "faulting access address" a miss
  | _ -> Alcotest.fail "unexpected op sequence");
  (* timestamps are nondecreasing simulated cycles *)
  let rec mono = function
    | a :: (b :: _ as rest) ->
        a.Rio_protect.Op_log.cycles <= b.Rio_protect.Op_log.cycles && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotonic timestamps" true (mono ops);
  (* detaching stops recording *)
  Dma_api.set_log api None;
  translate iova;
  Alcotest.(check int) "no further events" 4 (Rio_protect.Op_log.length log)

let prop_op_log_csv_roundtrip =
  QCheck.Test.make ~name:"op log CSV round trip" ~count:100
    QCheck.(small_list (triple (int_bound 2) (int_bound 0xFFFF) (int_bound 4096)))
    (fun specs ->
      let log = Rio_protect.Op_log.create () in
      List.iteri
        (fun i (kind, addr, arg) ->
          let cycles = i * 10 in
          match kind with
          | 0 -> Rio_protect.Op_log.record_map log ~cycles ~ring:(arg mod 4) ~addr ~bytes:(arg + 1)
          | 1 -> Rio_protect.Op_log.record_unmap log ~cycles ~addr
          | _ ->
              Rio_protect.Op_log.record_access log ~cycles ~addr ~offset:arg
                ~write:(arg mod 2 = 0) ~ok:(arg mod 3 <> 0))
        specs;
      match Rio_protect.Op_log.of_csv (Rio_protect.Op_log.to_csv log) with
      | Ok log' ->
          Rio_protect.Op_log.entries log' = Rio_protect.Op_log.entries log
      | Error _ -> false)

let test_op_log_csv_rejects_garbage () =
  Alcotest.(check bool) "bad header" true
    (Result.is_error (Rio_protect.Op_log.of_csv "nope"));
  Alcotest.(check bool) "bad row" true
    (Result.is_error
       (Rio_protect.Op_log.of_csv "seq,cycles,op,addr,arg1,arg2\n1,2,bogus,3,4,5"))

let () =
  Alcotest.run "rio_protect"
    [
      ( "mode",
        [
          Alcotest.test_case "name round trip" `Quick test_mode_names_roundtrip;
          Alcotest.test_case "classification" `Quick test_mode_classification;
        ] );
      ( "dma_api",
        List.map
          (fun mode ->
            Alcotest.test_case
              (Printf.sprintf "map/translate/unmap (%s)" (Mode.name mode))
              `Quick (roundtrip mode))
          Mode.all
        @ [
            Alcotest.test_case "driver cycle ordering" `Quick test_driver_cycle_ordering;
            Alcotest.test_case "out-of-range rIOVAs are typed faults" `Quick
              test_out_of_range_riovas;
            Alcotest.test_case "swpt charges walks" `Quick test_swpt_charges_walks;
            Alcotest.test_case "riommu overflow surfaces" `Quick
              test_riommu_overflow_surfaces;
            QCheck_alcotest.to_alcotest prop_log_observer;
            Alcotest.test_case "riommu exn forms allocate nothing" `Quick
              test_riommu_words_per_op;
            QCheck_alcotest.to_alcotest prop_strict_riommu_agree;
            Alcotest.test_case "pass-through stray unmap" `Quick
              test_passthrough_stray_unmap;
          ] );
      ( "op_log",
        [
          Alcotest.test_case "records driver and device ops" `Quick
            test_op_log_records_driver_and_device_ops;
          QCheck_alcotest.to_alcotest prop_op_log_csv_roundtrip;
          Alcotest.test_case "csv rejects garbage" `Quick test_op_log_csv_rejects_garbage;
        ] );
    ]
