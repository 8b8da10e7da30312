(* Tests for the serve subsystem (rio_serve): HDR histogram quantile
   bound and merge properties against an exact sorted-array oracle,
   scatter-gather map/unmap semantics (including atomic exhaustion
   rollback), translate_exn parity with the boxed translate, engine
   determinism across --jobs, the stop flag, and a stress test of
   attach/detach churn during active translation on the sharded path. *)

module Addr = Rio_memory.Addr
module Frame_allocator = Rio_memory.Frame_allocator
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Bdf = Rio_iommu.Bdf
module Hw = Rio_iommu.Hw
module Shared_iotlb = Rio_domain.Shared_iotlb
module Manager = Rio_domain.Manager
module Histogram = Rio_serve.Histogram
module Shard = Rio_serve.Shard
module Server = Rio_serve.Server
module Flag = Rio_exec.Flag

(* {1 Histogram: oracle properties} *)

let quantiles = [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

let exact_quantile sorted q =
  let n = Array.length sorted in
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  let r = if r < 1 then 1 else if r > n then n else r in
  sorted.(r - 1)

(* values spanning the exact region, several octaves, and the tail *)
let value_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 63;
        int_bound 5_000;
        int_bound 1_000_000;
        int_bound ((1 lsl 40) + 100);
      ])

let values_arb =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (int_range 1 300) value_gen)

(* [bucket_of] against the same index computed with the reference
   highest-set-bit loop, over the whole int range: random values plus
   every 2^k - 1, 2^k and 2^k + 1. *)
let reference_bucket ~sub_bits v =
  let sub_count = 1 lsl sub_bits in
  if v < 2 * sub_count then v
  else begin
    let e = ref 0 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      incr e
    done;
    let shift = !e - sub_bits in
    (shift * sub_count) + (v lsr shift)
  end

let powers_of_two_edges =
  List.concat_map
    (fun k ->
      let p = 1 lsl k in
      List.filter (fun v -> v >= 0) [ p - 1; p; p + 1 ])
    (List.init 62 Fun.id)
  @ [ max_int ]

(* random non-negative ints of a random bit width, so every octave is hit *)
let any_width_gen =
  QCheck.Gen.(
    map2 (fun k v -> v land ((1 lsl k) - 1)) (int_range 0 62) int)

let prop_bucket_of_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"bucket_of = reference msb loop"
    QCheck.(pair (int_range 1 8) (make ~print:Print.int any_width_gen))
    (fun (sub_bits, v) ->
      let h = Histogram.create ~sub_bits ~max_value:max_int () in
      List.for_all
        (fun v -> Histogram.bucket_of h v = reference_bucket ~sub_bits v)
        (v :: powers_of_two_edges))

let prop_quantile_bound =
  QCheck.Test.make ~count:500 ~name:"quantile within bucket of exact rank"
    values_arb (fun vs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) vs;
      let max_value = 1 lsl 40 in
      let sorted =
        let a = Array.of_list vs in
        let a = Array.map (fun v -> min (max v 0) max_value) a in
        Array.sort compare a;
        a
      in
      let rel = Histogram.rel_error_bound h in
      List.for_all
        (fun q ->
          let exact = exact_quantile sorted q in
          let got = Histogram.quantile h q in
          Histogram.bucket_of h got = Histogram.bucket_of h exact
          && got >= exact
          && (exact = 0
             || float_of_int (got - exact) <= (rel *. float_of_int exact) +. 1e-6))
        quantiles)

let prop_merge_is_union =
  QCheck.Test.make ~count:500 ~name:"merge(a,b) = record(a @ b)"
    (QCheck.pair values_arb values_arb) (fun (xs, ys) ->
      let ha = Histogram.create () in
      let hb = Histogram.create () in
      let hu = Histogram.create () in
      List.iter (Histogram.record ha) xs;
      List.iter (Histogram.record hb) ys;
      List.iter (Histogram.record hu) (xs @ ys);
      Histogram.merge_into ~dst:ha hb;
      Histogram.equal ha hu
      && List.for_all
           (fun q -> Histogram.quantile ha q = Histogram.quantile hu q)
           quantiles)

let test_histogram_edges () =
  let h = Histogram.create ~sub_bits:5 ~max_value:1000 () in
  Alcotest.(check int) "empty quantile" 0 (Histogram.quantile h 0.5);
  Alcotest.(check int) "empty max" 0 (Histogram.max_recorded h);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Histogram.mean h);
  Histogram.record h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Histogram.quantile h 1.0);
  Histogram.record h 5_000;
  Alcotest.(check int) "overflow clamps to max_value" 1_000
    (Histogram.max_recorded h);
  (* values below 2*2^sub_bits are exact *)
  let e = Histogram.create () in
  List.iter (Histogram.record e) [ 3; 17; 42; 63 ];
  Alcotest.(check int) "exact region p50" 17 (Histogram.quantile e 0.5);
  Alcotest.(check int) "exact region p100" 63 (Histogram.quantile e 1.0);
  Alcotest.(check (float 1e-9)) "mean is exact" 31.25 (Histogram.mean e);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.quantile: q must be in (0, 1]") (fun () ->
      ignore (Histogram.quantile e 0.));
  Alcotest.check_raises "bad sub_bits"
    (Invalid_argument "Histogram.create: sub_bits must be in [1, 15]")
    (fun () -> ignore (Histogram.create ~sub_bits:0 ()));
  let g = Histogram.create ~sub_bits:6 () in
  Alcotest.check_raises "merge geometry mismatch"
    (Invalid_argument "Histogram.merge_into: geometry mismatch") (fun () ->
      Histogram.merge_into ~dst:g e);
  Histogram.reset e;
  Alcotest.(check int) "reset empties" 0 (Histogram.count e)

(* {1 Manager: scatter-gather and translate_exn} *)

let make_mgr ?(iotlb_capacity = 32) () =
  let clock = Cycles.create () in
  let frames = Frame_allocator.create ~total_frames:100_000 in
  let mgr =
    Manager.create ~iotlb_policy:Shared_iotlb.Shared ~iotlb_capacity
      ~invalidation:Manager.Per_domain ~policy:Manager.Immediate ~frames ~clock
      ~cost:Cost_model.default ()
  in
  (mgr, frames)

let test_map_sg_roundtrip () =
  let mgr, frames = make_mgr () in
  let d =
    Manager.add_domain mgr ~name:"sg" ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let n = 4 in
  let segs =
    Array.init n (fun i -> (Frame_allocator.alloc_exn frames, 512 * (i + 1)))
  in
  let iovas = Array.make n 0 in
  (match Manager.map_sg mgr d ~segs ~iovas ~read:true ~write:true () with
  | Ok k -> Alcotest.(check int) "all segments mapped" n k
  | Error `Exhausted -> Alcotest.fail "map_sg exhausted");
  Alcotest.(check int) "distinct iovas" n
    (List.length (List.sort_uniq compare (Array.to_list iovas)));
  Alcotest.(check int) "live mappings" n (Manager.live_mappings mgr d);
  Array.iteri
    (fun i iova ->
      let phys =
        Manager.translate_exn mgr ~rid:(Manager.rid d) ~iova ~write:true
      in
      Alcotest.(check int)
        (Printf.sprintf "seg %d translates to its frame" i)
        (Addr.to_int (fst segs.(i)))
        (Addr.to_int phys))
    iovas;
  (match Manager.unmap_sg mgr d ~iovas () with
  | Ok () -> ()
  | Error `Not_mapped -> Alcotest.fail "unmap_sg failed");
  Alcotest.(check int) "all unmapped" 0 (Manager.live_mappings mgr d);
  Alcotest.(check bool) "double unmap_sg reports not mapped" true
    (Manager.unmap_sg mgr d ~iovas () = Error `Not_mapped)

let test_map_sg_rollback () =
  let mgr, frames = make_mgr () in
  (* 8 one-page segments against a 4-pfn IOVA space: must exhaust
     mid-batch and roll back atomically *)
  let d =
    Manager.add_domain mgr ~name:"tiny"
      ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0)
      ~iova_limit_pfn:4 ()
  in
  let segs =
    Array.init 8 (fun _ -> (Frame_allocator.alloc_exn frames, 4096))
  in
  let iovas = Array.make 8 0 in
  Alcotest.(check bool) "batch exhausts" true
    (Manager.map_sg mgr d ~segs ~iovas ~read:true ~write:true () = Error `Exhausted);
  Alcotest.(check int) "rollback leaves nothing mapped" 0
    (Manager.live_mappings mgr d);
  (* the rolled-back ranges are reusable: a fitting batch now succeeds *)
  (match Manager.map_sg mgr d ~segs ~n:2 ~iovas ~read:true ~write:true () with
  | Ok k -> Alcotest.(check int) "small batch fits after rollback" 2 k
  | Error `Exhausted -> Alcotest.fail "space not released by rollback");
  Alcotest.(check int) "two live" 2 (Manager.live_mappings mgr d)

let test_translate_exn_parity () =
  let mgr, frames = make_mgr () in
  let d =
    Manager.add_domain mgr ~name:"p" ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let buf = Frame_allocator.alloc_exn frames in
  let iova =
    Result.get_ok (Manager.map mgr d ~phys:buf ~bytes:4096 ~read:true ~write:false)
  in
  let rid = Manager.rid d in
  (* hit path: both report the same phys, offsets preserved *)
  let boxed = Manager.translate mgr ~rid ~iova:(iova + 129) ~write:false in
  let unboxed = Manager.translate_exn mgr ~rid ~iova:(iova + 129) ~write:false in
  Alcotest.(check bool) "same phys as translate" true
    (boxed = Ok unboxed);
  Alcotest.(check int) "offset preserved" 129 (Addr.page_offset unboxed);
  (* permission fault: read-only mapping refuses a write *)
  Alcotest.check_raises "write to read-only faults" Manager.Translation_fault
    (fun () -> ignore (Manager.translate_exn mgr ~rid ~iova ~write:true));
  (* no-translation fault *)
  Alcotest.check_raises "unmapped iova faults" Manager.Translation_fault
    (fun () ->
      ignore (Manager.translate_exn mgr ~rid ~iova:0xDEAD000 ~write:false));
  Alcotest.(check int) "faults recorded like translate" 2
    (Manager.faults mgr d);
  (* unknown rid *)
  Alcotest.check_raises "unknown rid faults" Manager.Translation_fault
    (fun () ->
      ignore (Manager.translate_exn mgr ~rid:0xFFFF ~iova ~write:false));
  Alcotest.(check int) "unknown-rid counter" 1 (Manager.unknown_rid_faults mgr)

let test_online_attach_policies () =
  (* Shared: attach mid-traffic works, detach frees the bdf for reuse *)
  let mgr, frames = make_mgr () in
  let a =
    Manager.add_domain mgr ~name:"a" ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let buf = Frame_allocator.alloc_exn frames in
  let iova =
    Result.get_ok (Manager.map mgr a ~phys:buf ~bytes:4096 ~read:true ~write:true)
  in
  ignore (Manager.translate_exn mgr ~rid:(Manager.rid a) ~iova ~write:false);
  let late =
    Manager.add_domain mgr ~name:"late"
      ~bdf:(Bdf.make ~bus:2 ~device:0 ~func:0)
      ()
  in
  let iova2 =
    Result.get_ok
      (Manager.map mgr late ~phys:buf ~bytes:4096 ~read:true ~write:true)
  in
  ignore
    (Manager.translate_exn mgr ~rid:(Manager.rid late) ~iova:iova2 ~write:false);
  Manager.remove_domain mgr late;
  let reused =
    Manager.add_domain mgr ~name:"reuse"
      ~bdf:(Bdf.make ~bus:2 ~device:0 ~func:0)
      ()
  in
  Alcotest.(check bool) "bdf reusable after detach" true
    (Manager.domain_name reused = "reuse");
  (* Partitioned: slice geometry is frozen at first traffic *)
  let clock = Cycles.create () in
  let frames2 = Frame_allocator.create ~total_frames:10_000 in
  let pmgr =
    Manager.create ~iotlb_policy:Shared_iotlb.Partitioned ~iotlb_capacity:32
      ~invalidation:Manager.Per_domain ~policy:Manager.Immediate ~frames:frames2
      ~clock ~cost:Cost_model.default ()
  in
  let p =
    Manager.add_domain pmgr ~name:"p" ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let pbuf = Frame_allocator.alloc_exn frames2 in
  let piova =
    Result.get_ok
      (Manager.map pmgr p ~phys:pbuf ~bytes:4096 ~read:true ~write:true)
  in
  ignore (Manager.translate_exn pmgr ~rid:(Manager.rid p) ~iova:piova ~write:false);
  Alcotest.check_raises "partitioned refuses late attach"
    (Invalid_argument
       "Shared_iotlb.register: traffic already started (partitioned slice \
        geometry is fixed at first traffic)") (fun () ->
      ignore
        (Manager.add_domain pmgr ~name:"late"
           ~bdf:(Bdf.make ~bus:2 ~device:0 ~func:0)
           ()))

(* {1 Stop flag} *)

let test_flag () =
  let f = Flag.create () in
  Alcotest.(check bool) "starts false" false (Flag.get f);
  Flag.set f;
  Alcotest.(check bool) "set raises it" true (Flag.get f);
  Flag.set f;
  Alcotest.(check bool) "set is idempotent" true (Flag.get f)

(* {1 Server engine} *)

let small_config =
  {
    Server.default_config with
    Server.shards = 3;
    tenants = 4;
    flows_per_tenant = 2;
    duration_s = 0.002;
    interval_s = 0.001;
  }

let test_server_deterministic_across_jobs () =
  let run jobs =
    let r = Server.run { small_config with Server.jobs } in
    (Server.render_summary r, Server.final r)
  in
  let s1, f1 = run 1 in
  let s4, f4 = run 4 in
  let s0, _ = run 0 in
  Alcotest.(check string) "summary identical jobs 1 vs 4" s1 s4;
  Alcotest.(check string) "summary identical jobs 1 vs 0" s1 s0;
  Alcotest.(check bool) "snapshots identical" true (f1 = f4);
  Alcotest.(check bool) "serves requests" true (f1.Server.requests > 0);
  Alcotest.(check bool) "translates" true
    (f1.Server.ops.(Shard.op_index Shard.Translate) > 0);
  Alcotest.(check int) "no faults" 0 f1.Server.faults;
  Alcotest.(check int) "no drops" 0 f1.Server.dropped

let test_server_two_ticks () =
  let r = Server.run { small_config with Server.jobs = 2 } in
  Alcotest.(check int) "one snapshot per interval" 2
    (List.length r.Server.snapshots);
  match r.Server.snapshots with
  | [ a; b ] ->
      Alcotest.(check bool) "cumulative ops grow" true
        (Array.for_all2 ( <= ) a.Server.ops b.Server.ops);
      Alcotest.(check bool) "not stopped" false r.Server.stopped
  | _ -> Alcotest.fail "expected two snapshots"

let test_server_stop_flag () =
  let stop = Flag.create () in
  Flag.set stop;
  let r = Server.run ~stop { small_config with Server.jobs = 2 } in
  Alcotest.(check bool) "reports stopped" true r.Server.stopped;
  Alcotest.(check int) "retired before serving" 0
    (Server.final r).Server.requests

(* {1 Sharded attach/detach churn during active translation} *)

(* Each task owns a private shard (the service's isolation unit) and
   interleaves tenant attach/map/translate/detach churn with steady
   translation traffic from its resident tenants, exactly the pattern a
   live reconfiguration produces. Running the same task array under
   jobs 1 and jobs 4 must produce identical digests: attach/detach on
   one shard cannot be affected by - or affect - translation running
   concurrently on other shards. *)
let churn_task sid () =
  let shard =
    Shard.create ~id:sid ~tenants:2 ~iotlb_capacity:32
      ~iotlb_policy:Shared_iotlb.Shared ~rcache:true ~buf_pool:32 ()
  in
  let mgr = Shard.manager shard in
  (* resident tenants with long-lived mappings *)
  let resident =
    Array.init 2 (fun t ->
        match
          Shard.map_record shard ~tenant:t ~phys:(Shard.next_buf shard)
            ~bytes:4096
        with
        | Ok iova -> iova
        | Error `Exhausted -> Alcotest.fail "resident map")
  in
  let digest = ref (sid * 7919) in
  for round = 0 to 24 do
    let d =
      Manager.add_domain mgr
        ~name:(Printf.sprintf "hot%d" round)
        ~bdf:(Bdf.make ~bus:(100 + (round mod 16)) ~device:0 ~func:0)
        ()
    in
    let iova =
      Result.get_ok
        (Manager.map mgr d ~phys:(Shard.next_buf shard) ~bytes:4096 ~read:true
           ~write:true)
    in
    let p = Manager.translate_exn mgr ~rid:(Manager.rid d) ~iova ~write:true in
    digest := (!digest * 31) + Addr.to_int p + iova;
    (* residents keep translating while the hot tenant lives *)
    Array.iteri
      (fun t riova ->
        let rp = Shard.translate_record shard ~tenant:t ~iova:riova ~write:false in
        digest := (!digest * 31) + Addr.to_int rp)
      resident;
    Manager.remove_domain mgr d;
    (* after detach the rid must fault as unknown *)
    (try
       ignore (Manager.translate_exn mgr ~rid:(Manager.rid d) ~iova ~write:false);
       digest := -1
     with Manager.Translation_fault -> digest := (!digest * 2) + 1)
  done;
  (!digest, Shard.ops shard Shard.Translate, Manager.unknown_rid_faults mgr)

let test_churn_stress_parallel () =
  let tasks = Array.init 6 churn_task in
  let seq = Rio_exec.Pool.run ~jobs:1 tasks in
  let par = Rio_exec.Pool.run ~jobs:4 tasks in
  Alcotest.(check bool) "parallel digests = sequential digests" true (seq = par);
  Array.iter
    (fun (digest, translates, unknown) ->
      Alcotest.(check bool) "no mis-translation" true (digest <> -1);
      Alcotest.(check int) "resident translations recorded" 50 translates;
      Alcotest.(check int) "every detached rid faulted" 25 unknown)
    seq

(* {1 Runner} *)

let () =
  Alcotest.run "rio_serve"
    [
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest prop_quantile_bound;
          QCheck_alcotest.to_alcotest prop_merge_is_union;
          QCheck_alcotest.to_alcotest prop_bucket_of_matches_reference;
          Alcotest.test_case "edges" `Quick test_histogram_edges;
        ] );
      ( "manager-sg",
        [
          Alcotest.test_case "map_sg roundtrip" `Quick test_map_sg_roundtrip;
          Alcotest.test_case "exhaustion rolls back" `Quick test_map_sg_rollback;
          Alcotest.test_case "translate_exn parity" `Quick
            test_translate_exn_parity;
          Alcotest.test_case "online attach policies" `Quick
            test_online_attach_policies;
        ] );
      ( "engine",
        [
          Alcotest.test_case "flag" `Quick test_flag;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_server_deterministic_across_jobs;
          Alcotest.test_case "snapshot ticks" `Quick test_server_two_ticks;
          Alcotest.test_case "stop flag" `Quick test_server_stop_flag;
          Alcotest.test_case "attach/detach churn stress" `Quick
            test_churn_stress_parallel;
        ] );
    ]
