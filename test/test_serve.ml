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
module Shared_iotlb = Rio_domain.Shared_iotlb
module Manager = Rio_domain.Manager
module Driver = Rio_domain.Driver
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

(* The byte-table highest-set-bit the histogram used before it read the
   bit from a double's exponent: three branch-free halving steps narrow
   v to its top byte, then one table load. *)
let table_msb =
  let msb_byte =
    String.init 256 (fun b ->
        let rec go e b = if b > 1 then go (e + 1) (b lsr 1) else e in
        Char.chr (go 0 b))
  in
  fun v ->
    let s = Bool.to_int (v lsr 32 <> 0) lsl 5 in
    let v = v lsr s and e = s in
    let s = Bool.to_int (v lsr 16 <> 0) lsl 4 in
    let v = v lsr s and e = e + s in
    let s = Bool.to_int (v lsr 8 <> 0) lsl 3 in
    let v = v lsr s and e = e + s in
    e + Char.code msb_byte.[v]

let table_bucket ~sub_bits v =
  let sub_count = 1 lsl sub_bits in
  if v < 2 * sub_count then v
  else
    let shift = table_msb v - sub_bits in
    (shift * sub_count) + (v lsr shift)

(* [bucket_of] against the byte-table index, for random values in
   [0, max_value] and at every 2^k - 1, 2^k and 2^k + 1 up to it, under
   the default geometry's max_value (2^40) and under max_int. *)
let prop_bucket_of_matches_table_msb =
  QCheck.Test.make ~count:1000 ~name:"bucket_of = byte-table msb index"
    QCheck.(triple (int_range 1 8) bool (make ~print:Print.int any_width_gen))
    (fun (sub_bits, wide, v) ->
      let max_value = if wide then max_int else 1 lsl 40 in
      let h = Histogram.create ~sub_bits ~max_value () in
      let v = v mod (max_value + 1) in
      let edges = List.filter (fun e -> e <= max_value) powers_of_two_edges in
      List.for_all
        (fun v -> Histogram.bucket_of h v = table_bucket ~sub_bits v)
        (v :: edges))

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

(* [record2 a b v] against [record a v; record b v] on twin histograms.
   Values include negatives and values above the small geometry's
   max_value, some go to the second histogram only (as a tenant's
   histogram also holds other op kinds), and interval windows are cut
   at random points. Runs with the two histograms sharing a geometry
   (one bucket computation) and not (the per-histogram fallback). *)
let prop_record2_is_two_records =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          int_range (-1_000) (-1);
          int_bound 63;
          int_bound 5_000;
          int_range 5_001 100_000;
          int_bound (1 lsl 41);
        ])
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun v -> `Both v) value_gen);
          (2, map (fun v -> `Second v) value_gen);
          (1, return `Window);
        ])
  in
  let print (same, ops) =
    Printf.sprintf "same_geometry=%b [%s]" same
      (String.concat "; "
         (List.map
            (function
              | `Both v -> Printf.sprintf "both %d" v
              | `Second v -> Printf.sprintf "second %d" v
              | `Window -> "window")
            ops))
  in
  QCheck.Test.make ~count:300 ~name:"record2 = record into each"
    (QCheck.make ~print
       QCheck.Gen.(pair bool (list_size (int_range 1 200) op_gen)))
    (fun (same, ops) ->
      let small () = Histogram.create ~sub_bits:3 ~max_value:5_000 () in
      let second () = if same then small () else Histogram.create () in
      let a = small () and b = second () in
      let ra = small () and rb = second () in
      let twins h r =
        Histogram.equal h r
        && Histogram.max_recorded h = Histogram.max_recorded r
      in
      let window_twins h r mk =
        let wh = mk () and wr = mk () in
        Histogram.interval_into h ~into:wh;
        Histogram.interval_into r ~into:wr;
        twins wh wr
      in
      List.for_all
        (fun op ->
          (match op with
          | `Both v ->
              Histogram.record2 a b v;
              Histogram.record ra v;
              Histogram.record rb v;
              true
          | `Second v ->
              Histogram.record b v;
              Histogram.record rb v;
              true
          | `Window -> window_twins a ra small && window_twins b rb second)
          && twins a ra && twins b rb)
        ops
      && window_twins a ra small && window_twins b rb second)

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
      ~invalidation:Manager.Per_domain ~policy:Driver.Immediate ~frames ~clock
      ~cost:Cost_model.default ()
  in
  (mgr, frames)

let test_map_sg_roundtrip () =
  let mgr, frames = make_mgr () in
  let d =
    Manager.add_domain mgr ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let n = 4 in
  let phys = Array.init n (fun _ -> Frame_allocator.alloc_exn frames) in
  let bytes = Array.init n (fun i -> 512 * (i + 1)) in
  let iovas = Array.make n 0 in
  let drv = Manager.driver d in
  (match Driver.map_sg_exn drv ~phys ~bytes ~n ~iovas ~read:true ~write:true with
  | k -> Alcotest.(check int) "all segments mapped" n k
  | exception Driver.Exhausted -> Alcotest.fail "map_sg exhausted");
  Alcotest.(check int) "distinct iovas" n
    (List.length (List.sort_uniq compare (Array.to_list iovas)));
  Alcotest.(check int) "live mappings" n (Driver.live_mappings (Manager.driver d));
  Array.iteri
    (fun i iova ->
      let p = Manager.translate_exn mgr ~rid:(Manager.rid d) ~iova ~write:true in
      Alcotest.(check int)
        (Printf.sprintf "seg %d translates to its frame" i)
        (Addr.to_int phys.(i))
        (Addr.to_int p))
    iovas;
  (match Driver.unmap_sg_exn drv ~iovas ~n ~flush:Driver.Per_iova with
  | () -> ()
  | exception Driver.Not_mapped -> Alcotest.fail "unmap_sg failed");
  Alcotest.(check int) "all unmapped" 0 (Driver.live_mappings (Manager.driver d));
  Alcotest.check_raises "double unmap_sg reports not mapped" Driver.Not_mapped
    (fun () -> Driver.unmap_sg_exn drv ~iovas ~n ~flush:Driver.Per_iova)

let test_map_sg_rollback () =
  let mgr, frames = make_mgr () in
  (* 8 one-page segments against a 4-pfn IOVA space: must exhaust
     mid-batch and roll back atomically *)
  let d =
    Manager.add_domain mgr ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0)
      ~iova_limit_pfn:4 ()
  in
  let phys = Array.init 8 (fun _ -> Frame_allocator.alloc_exn frames) in
  let bytes = Array.make 8 4096 in
  let iovas = Array.make 8 0 in
  let drv = Manager.driver d in
  Alcotest.check_raises "batch exhausts" Driver.Exhausted (fun () ->
      ignore (Driver.map_sg_exn drv ~phys ~bytes ~n:8 ~iovas ~read:true ~write:true));
  Alcotest.(check int) "rollback leaves nothing mapped" 0
    (Driver.live_mappings (Manager.driver d));
  (* the rolled-back ranges are reusable: a fitting batch now succeeds *)
  (match Driver.map_sg_exn drv ~phys ~bytes ~n:2 ~iovas ~read:true ~write:true with
  | k -> Alcotest.(check int) "small batch fits after rollback" 2 k
  | exception Driver.Exhausted -> Alcotest.fail "space not released by rollback");
  Alcotest.(check int) "two live" 2 (Driver.live_mappings (Manager.driver d))

let test_translate_exn_parity () =
  let mgr, frames = make_mgr () in
  let d =
    Manager.add_domain mgr ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let buf = Frame_allocator.alloc_exn frames in
  let iova =
    Driver.map_exn (Manager.driver d) ~phys:buf ~bytes:4096 ~read:true ~write:false
  in
  let rid = Manager.rid d in
  (* hit path: the mapped phys, offsets preserved *)
  let phys = Manager.translate_exn mgr ~rid ~iova:(iova + 129) ~write:false in
  Alcotest.(check bool) "same phys as the mapping" true
    (phys = Addr.add buf 129);
  Alcotest.(check int) "offset preserved" 129 (Addr.page_offset phys);
  (* permission fault: read-only mapping refuses a write; the class is
     the tenant driver's last fault *)
  let last_fault () = Driver.last_fault (Manager.driver d) in
  Alcotest.check_raises "write to read-only faults" Manager.Translation_fault
    (fun () -> ignore (Manager.translate_exn mgr ~rid ~iova ~write:true));
  Alcotest.(check bool) "class: not permitted" true (last_fault () = Driver.Not_permitted);
  (* no-translation fault *)
  Alcotest.check_raises "unmapped iova faults" Manager.Translation_fault
    (fun () ->
      ignore (Manager.translate_exn mgr ~rid ~iova:0xDEAD000 ~write:false));
  Alcotest.(check bool) "class: no translation" true (last_fault () = Driver.No_translation);
  Alcotest.(check int) "faults recorded" 2
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
    Manager.add_domain mgr ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let buf = Frame_allocator.alloc_exn frames in
  let iova = Driver.map_exn (Manager.driver a) ~phys:buf ~bytes:4096 ~read:true ~write:true in
  ignore (Manager.translate_exn mgr ~rid:(Manager.rid a) ~iova ~write:false);
  let late =
    Manager.add_domain mgr ~bdf:(Bdf.make ~bus:2 ~device:0 ~func:0)
      ()
  in
  let iova2 =
    Driver.map_exn (Manager.driver late) ~phys:buf ~bytes:4096 ~read:true ~write:true
  in
  ignore
    (Manager.translate_exn mgr ~rid:(Manager.rid late) ~iova:iova2 ~write:false);
  Manager.remove_domain mgr late;
  let reused =
    Manager.add_domain mgr ~bdf:(Bdf.make ~bus:2 ~device:0 ~func:0)
      ()
  in
  Alcotest.(check int) "bdf reusable after detach" (Manager.rid late)
    (Manager.rid reused);
  (* Partitioned: slice geometry is frozen at first traffic *)
  let clock = Cycles.create () in
  let frames2 = Frame_allocator.create ~total_frames:10_000 in
  let pmgr =
    Manager.create ~iotlb_policy:Shared_iotlb.Partitioned ~iotlb_capacity:32
      ~invalidation:Manager.Per_domain ~policy:Driver.Immediate ~frames:frames2
      ~clock ~cost:Cost_model.default ()
  in
  let p =
    Manager.add_domain pmgr ~bdf:(Bdf.make ~bus:1 ~device:0 ~func:0) ()
  in
  let pbuf = Frame_allocator.alloc_exn frames2 in
  let piova =
    Driver.map_exn (Manager.driver p) ~phys:pbuf ~bytes:4096 ~read:true ~write:true
  in
  ignore (Manager.translate_exn pmgr ~rid:(Manager.rid p) ~iova:piova ~write:false);
  Alcotest.check_raises "partitioned refuses late attach"
    (Invalid_argument
       "Shared_iotlb.register: traffic already started (partitioned slice \
        geometry is fixed at first traffic)") (fun () ->
      ignore
        (Manager.add_domain pmgr ~bdf:(Bdf.make ~bus:2 ~device:0 ~func:0)
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

(* {1 Per-tenant footprint} *)

(* Live heap a freshly created shard holds, in KiB, after [drive]
   has run on it: with no driving, what attaching costs before the
   first op (state built on first use is not in it). *)
let shard_kib ?(drive = fun _ -> ()) ~tenants () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let shard =
    Shard.create ~id:0 ~tenants ~iotlb_capacity:256
      ~iotlb_policy:Shared_iotlb.Shared ~rcache:true ()
  in
  drive shard;
  let after = live () in
  ignore (Sys.opaque_identity shard : Shard.t);
  float_of_int ((after - before) * (Sys.word_size / 8)) /. 1024.

(* One map and one translate per tenant: each builds its table store
   and its latency histogram. *)
let drive_every_tenant shard =
  for tenant = 0 to Shard.tenants shard - 1 do
    let iova =
      Shard.map shard ~tenant ~phys:(Shard.next_buf shard) ~bytes:4096
    in
    if iova < 0 then Alcotest.fail "footprint map";
    ignore (Shard.translate_record shard ~tenant ~iova ~write:false : Addr.phys)
  done

let test_tenant_footprint () =
  let per_tenant ?drive () =
    let one = shard_kib ?drive ~tenants:1 () in
    ((shard_kib ?drive ~tenants:65 () -. one) /. 64., one)
  in
  (* attached but never driven: no table store, no histogram *)
  let idle, one = per_tenant () in
  if idle > 4. then
    Alcotest.failf "%.1f KiB per attached idle tenant (bound 4)" idle;
  if one > 128. then
    Alcotest.failf "%.1f KiB for a one-tenant shard (bound 128)" one;
  let active, _ = per_tenant ~drive:drive_every_tenant () in
  if active > 48. then
    Alcotest.failf "%.1f KiB per active tenant (bound 48)" active

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
        let iova =
          Shard.map shard ~tenant:t ~phys:(Shard.next_buf shard) ~bytes:4096
        in
        if iova < 0 then Alcotest.fail "resident map";
        iova)
  in
  let digest = ref (sid * 7919) in
  for round = 0 to 24 do
    let d =
      Manager.add_domain mgr
        ~bdf:(Bdf.make ~bus:(100 + (round mod 16)) ~device:0 ~func:0)
        ()
    in
    let iova =
      Driver.map_exn (Manager.driver d) ~phys:(Shard.next_buf shard) ~bytes:4096
        ~read:true ~write:true
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

(* {1 Steady state allocates nothing} *)

(* Minor words [f] allocates, less what two adjacent reads cost. *)
let minor_words f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  f ();
  let c = Gc.minor_words () in
  c -. b -. (b -. a)

(* One shard of the default service after warm-up (25 simulated ms:
   the magazines, the table arena and the event queue reach their
   working-set size by about 20): 10 ms more of traffic (every op kind,
   connection churn, the event queue) allocates nothing, so a long run
   never cycles the minor heap. *)
let test_loadgen_zero_alloc () =
  let cfg = Server.default_config in
  let shard =
    Shard.create ~id:0 ~tenants:cfg.Server.tenants
      ~iotlb_capacity:cfg.iotlb_capacity ~iotlb_policy:cfg.iotlb_policy
      ~rcache:cfg.rcache ()
  in
  let gen =
    Rio_serve.Loadgen.create ~shard
      ~specs:(Rio_serve.Loadgen.default_specs ~tenants:cfg.tenants)
      ~seed:cfg.seed ~flows_per_tenant:cfg.flows_per_tenant ~sg_max:cfg.sg_max
  in
  let stop = Flag.create () in
  let ms = int_of_float (Cost_model.cycles_per_second Cost_model.default /. 1e3) in
  Rio_serve.Loadgen.run_until gen ~deadline:(25 * ms) ~stop;
  let ops = Array.init Shard.op_count (fun i -> Shard.ops shard (Shard.op_of_index i)) in
  let conns = Rio_serve.Loadgen.connections gen in
  let words =
    minor_words (fun () -> Rio_serve.Loadgen.run_until gen ~deadline:(35 * ms) ~stop)
  in
  Array.iteri
    (fun i n ->
      let op = Shard.op_of_index i in
      Alcotest.(check bool)
        (Shard.op_name op ^ " ran in the measured window")
        true
        (Shard.ops shard op > n))
    ops;
  Alcotest.(check bool) "connections opened in the measured window" true
    (Rio_serve.Loadgen.connections gen > conns);
  Alcotest.(check (float 0.)) "minor words" 0. words

(* {1 Runner} *)

let () =
  Alcotest.run "rio_serve"
    [
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest prop_quantile_bound;
          QCheck_alcotest.to_alcotest prop_merge_is_union;
          QCheck_alcotest.to_alcotest prop_bucket_of_matches_reference;
          QCheck_alcotest.to_alcotest prop_bucket_of_matches_table_msb;
          QCheck_alcotest.to_alcotest prop_record2_is_two_records;
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
          Alcotest.test_case "per-tenant footprint" `Quick test_tenant_footprint;
          Alcotest.test_case "loadgen steady state: 0 words" `Quick
            test_loadgen_zero_alloc;
        ] );
    ]
