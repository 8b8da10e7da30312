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
  Alcotest.(check bool) "strict safe" true (Mode.is_safe Mode.Strict);
  Alcotest.(check bool) "riommu safe" true (Mode.is_safe Mode.Riommu);
  Alcotest.(check bool) "defer unsafe" false (Mode.is_safe Mode.Defer);
  Alcotest.(check bool) "none unprotected" false (Mode.is_protected Mode.None_);
  Alcotest.(check bool) "defer protected" true (Mode.is_protected Mode.Defer);
  Alcotest.(check bool) "strict+ fast alloc" true
    (Mode.uses_fast_allocator Mode.Strict_plus);
  Alcotest.(check bool) "riommu coherent" true (Mode.coherent_walk Mode.Riommu);
  Alcotest.(check bool) "riommu- not coherent" false
    (Mode.coherent_walk Mode.Riommu_minus);
  Alcotest.(check int) "seven evaluated modes" 7 (List.length Mode.evaluated)

let make mode = Dma_api.create (Dma_api.default_config ~mode)

let roundtrip mode () =
  let api = make mode in
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let addr =
    Result.get_ok
      (Dma_api.map api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional)
  in
  Alcotest.(check int) "one live mapping" 1 (Dma_api.live_mappings api);
  (match Dma_api.translate api ~addr ~offset:100 ~write:true with
  | Ok p ->
      Alcotest.(check int) "translates to buffer+offset"
        (Addr.to_int buf + 100) (Addr.to_int p)
  | Error e -> Alcotest.failf "%s: unexpected fault %s" (Mode.name mode) e);
  Alcotest.(check bool) "unmap ok" true
    (Dma_api.unmap api ~addr ~end_of_burst:true = Ok ());
  Alcotest.(check int) "no live mappings" 0 (Dma_api.live_mappings api);
  Dma_api.flush api;
  let safe = Mode.is_safe mode || not (Mode.is_protected mode) in
  let blocked = Result.is_error (Dma_api.translate api ~addr ~offset:0 ~write:true) in
  if Mode.is_protected mode then
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
      let addr =
        Result.get_ok
          (Dma_api.map api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional)
      in
      ignore (Dma_api.unmap api ~addr ~end_of_burst:true);
      Rio_memory.Frame_allocator.free frames buf
    done;
    Dma_api.reset_driver_cycles api;
    for _ = 1 to 100 do
      let buf = Rio_memory.Frame_allocator.alloc_exn frames in
      let addr =
        Result.get_ok
          (Dma_api.map api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional)
      in
      ignore (Dma_api.unmap api ~addr ~end_of_burst:true);
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
   [Not_mapped], and a translate whose offset leaves the rIOVA's 30-bit
   field is the offset fault. A map into a ring the device lacks is the
   driver's own bug and stays [Invalid_argument]. *)
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
  let addr =
    Result.get_ok
      (Dma_api.map api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional)
  in
  let offset_fault = Error "offset out of range" in
  Alcotest.(check bool) "translate at offset 2^30" true
    (Dma_api.translate api ~addr ~offset:(1 lsl 30) ~write:true = offset_fault);
  Alcotest.(check bool) "translate at offset -1" true
    (Dma_api.translate api ~addr ~offset:(-1) ~write:true = offset_fault);
  Alcotest.(check bool) "Dma_api unmap of a missing ring" true
    (Dma_api.unmap api ~addr:no_ring ~end_of_burst:true = Error `Not_mapped)

let test_swpt_charges_walks () =
  (* SWpt translates through a real identity IOTLB: the first touch of a
     page costs a walk, later ones hit. *)
  let api = make Mode.Sw_passthrough in
  let clock = Dma_api.clock api in
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let addr =
    Result.get_ok (Dma_api.map api ~ring:0 ~phys:buf ~bytes:100 ~dir:Rpte.Bidirectional)
  in
  let _, first =
    Rio_sim.Cycles.measure clock (fun () ->
        ignore (Dma_api.translate api ~addr ~offset:0 ~write:false))
  in
  let _, second =
    Rio_sim.Cycles.measure clock (fun () ->
        ignore (Dma_api.translate api ~addr ~offset:0 ~write:false))
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
      Alcotest.(check bool) (name ^ ": stray unmap") true
        (Dma_api.unmap api ~addr:0x5000 ~end_of_burst:true = Error `Not_mapped);
      let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
      let addr = Dma_api.map_exn api ~ring:0 ~phys:buf ~bytes:64 ~dir:Rpte.Bidirectional in
      Dma_api.unmap_exn api ~iova:addr ~end_of_burst:true;
      Alcotest.check_raises (name ^ ": second unmap") I_driver.Not_mapped (fun () ->
          Dma_api.unmap_exn api ~iova:addr ~end_of_burst:true);
      Alcotest.(check int) (name ^ ": live stays 0") 0 (Dma_api.live_mappings api))
    [ Mode.None_; Mode.Hw_passthrough; Mode.Sw_passthrough ]

(* {2 One body per op}

   The result forms wrap the [_exn] forms, so twin instances driven
   through each must agree op for op: the same addresses, phys values
   and outcome classes, the same clock and [driver_cycles]. *)

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

let check_exn_result_twins mode ops =
  (* small rings and deferred batches so sequences reach overflow and
     the batched flush *)
  let cfg = { (Dma_api.default_config ~mode) with ring_sizes = [ 8; 8 ]; defer_batch = 8 } in
  let r = Dma_api.create cfg and e = Dma_api.create cfg in
  let fail fmt = Printf.ksprintf failwith ("%s " ^^ fmt) (Mode.name mode) in
  let seen = ref [||] in
  let pick k = if !seen = [||] then 0x5000 + k else !seen.(k mod Array.length !seen) in
  List.iteri
    (fun i op ->
      let phys = Addr.phys_of_int ((i + 1) * 0x3000) in
      (match op with
      | O_map (ring, bytes) ->
          let via_r =
            match Dma_api.map r ~ring ~phys ~bytes ~dir:Rpte.Bidirectional with
            | Ok a -> Ok a
            | Error `Exhausted -> Error "exhausted"
            | Error `Overflow -> Error "overflow"
          in
          let via_e =
            match Dma_api.map_exn e ~ring ~phys ~bytes ~dir:Rpte.Bidirectional with
            | a -> Ok a
            | exception I_driver.Exhausted -> Error "exhausted"
            | exception R_driver.Overflow -> Error "overflow"
          in
          if via_r <> via_e then fail "op %d %s: map outcomes differ" i (op_to_string op);
          Result.iter (fun a -> seen := Array.append !seen [| a |]) via_r
      | O_unmap k ->
          let addr = pick k in
          let via_r = Dma_api.unmap r ~addr ~end_of_burst:(k land 1 = 0) in
          let via_e =
            match Dma_api.unmap_exn e ~iova:addr ~end_of_burst:(k land 1 = 0) with
            | () -> Ok ()
            | exception I_driver.Not_mapped -> Error `Not_mapped
          in
          if via_r <> via_e then fail "op %d %s: unmap outcomes differ" i (op_to_string op)
      | O_translate (p, offset, write) ->
          let addr = pick p in
          let via_r = Result.map Addr.to_int (Dma_api.translate r ~addr ~offset ~write) in
          let via_e =
            match Dma_api.translate_exn e ~iova:(addr + offset) ~write with
            | phys -> Ok (Addr.to_int phys)
            | exception I_driver.Translation_fault -> Error "fault"
          in
          (match (via_r, via_e) with
          | Ok a, Ok b when a = b -> ()
          | Error _, Error _ -> ()
          | _ -> fail "op %d %s: translate outcomes differ" i (op_to_string op)));
      if Cycles.now (Dma_api.clock r) <> Cycles.now (Dma_api.clock e) then
        fail "after op %d: clocks differ" i;
      if Dma_api.driver_cycles r <> Dma_api.driver_cycles e then
        fail "after op %d: driver cycles differ" i;
      if Dma_api.faults r <> Dma_api.faults e then fail "after op %d: faults differ" i;
      if Dma_api.live_mappings r <> Dma_api.live_mappings e then
        fail "after op %d: live mappings differ" i)
    ops

let prop_exn_result_twins =
  QCheck.Test.make ~count:30 ~name:"exn and result forms agree (twin replay)"
    ops_arb (fun ops ->
      List.iter (fun mode -> check_exn_result_twins mode ops) Mode.all;
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
              match Dma_api.map api ~ring:0 ~phys ~bytes ~dir:Rpte.Bidirectional with
              | Ok addr -> Some (addr, phys, bytes, op)
              | Error _ -> None)
            specs
        in
        List.iter
          (fun (addr, phys, bytes, op) ->
            let offset = op * (bytes - 1) / 3 in
            match Dma_api.translate api ~addr ~offset ~write:true with
            | Ok p ->
                if Addr.to_int p <> Addr.to_int phys + offset then ok := false
            | Error _ -> ok := false)
          mapped;
        List.iter
          (fun (addr, _, _, _) ->
            if Dma_api.unmap api ~addr ~end_of_burst:true <> Ok () then ok := false)
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
  let map () = Dma_api.map api ~ring:0 ~phys:buf ~bytes:64 ~dir:Rpte.Bidirectional in
  Alcotest.(check bool) "1st" true (Result.is_ok (map ()));
  Alcotest.(check bool) "2nd" true (Result.is_ok (map ()));
  Alcotest.(check bool) "3rd overflows" true (map () = Error `Overflow)

(* {1 Op_log} *)

let test_op_log_records_driver_and_device_ops () =
  let api = make Mode.Strict in
  let log = Rio_protect.Op_log.create () in
  Dma_api.set_log api (Some log);
  let buf = Rio_memory.Frame_allocator.alloc_exn (Dma_api.frames api) in
  let addr =
    Result.get_ok (Dma_api.map api ~ring:0 ~phys:buf ~bytes:1500 ~dir:Rpte.Bidirectional)
  in
  ignore (Dma_api.translate api ~addr ~offset:64 ~write:true);
  ignore (Dma_api.unmap api ~addr ~end_of_burst:true);
  ignore (Dma_api.translate api ~addr ~offset:0 ~write:true);
  let ops = Rio_protect.Op_log.entries log in
  Alcotest.(check int) "four events" 4 (List.length ops);
  (match List.map (fun e -> e.Rio_protect.Op_log.op) ops with
  | [
   Rio_protect.Op_log.Map { addr = a; bytes = 1500; ring = 0 };
   Rio_protect.Op_log.Access { ok = true; offset = 64; _ };
   Rio_protect.Op_log.Unmap { addr = a' };
   Rio_protect.Op_log.Access { ok = false; _ };
  ] ->
      Alcotest.(check int) "map/unmap address agree" a a'
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
  ignore (Dma_api.translate api ~addr ~offset:0 ~write:true);
  Alcotest.(check int) "no further events" 4 (Rio_protect.Op_log.length log)

let prop_op_log_csv_roundtrip =
  QCheck.Test.make ~name:"op log CSV round trip" ~count:100
    QCheck.(small_list (triple (int_bound 2) (int_bound 0xFFFF) (int_bound 4096)))
    (fun specs ->
      let log = Rio_protect.Op_log.create () in
      List.iteri
        (fun i (kind, addr, arg) ->
          let op =
            match kind with
            | 0 -> Rio_protect.Op_log.Map { ring = arg mod 4; addr; bytes = arg + 1 }
            | 1 -> Rio_protect.Op_log.Unmap { addr }
            | _ ->
                Rio_protect.Op_log.Access
                  { addr; offset = arg; write = arg mod 2 = 0; ok = arg mod 3 <> 0 }
          in
          Rio_protect.Op_log.record log ~cycles:(i * 10) op)
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
            QCheck_alcotest.to_alcotest prop_exn_result_twins;
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
