open Rio_sim

type config = {
  shards : int;
  jobs : int;
  tenants : int;
  flows_per_tenant : int;
  duration_s : float;
  interval_s : float;
  seed : int;
  rcache : bool;
  iotlb_capacity : int;
  iotlb_policy : Rio_domain.Shared_iotlb.policy;
  sg_max : int;
}

let default_config =
  {
    shards = 4;
    jobs = 1;
    tenants = 8;
    flows_per_tenant = 4;
    duration_s = 1.0;
    interval_s = 0.25;
    seed = 42;
    rcache = true;
    iotlb_capacity = 256;
    iotlb_policy = Rio_domain.Shared_iotlb.Shared;
    sg_max = 16;
  }

type snapshot = {
  tick : int;
  virtual_s : float;
  ops : int array;
  mean_cycles : float array;
  p50 : int array;
  p99 : int array;
  p999 : int array;
  max_cycles : int array;
  win_ops : int array;
  win_p50 : int array;
  win_p99 : int array;
  win_p999 : int array;
  requests : int;
  connections : int;
  dropped : int;
  faults : int;
}

type tenant_stat = {
  t_ops : int;
  t_hits : int;
  t_misses : int;
  t_p50 : int;
  t_p99 : int;
  t_p999 : int;
}

type report = {
  config : config;
  snapshots : snapshot list;
  tenants : tenant_stat array;
  stopped : bool;
}

let final r =
  match List.rev r.snapshots with
  | s :: _ -> s
  | [] -> invalid_arg "Server.final: empty report"

let validate cfg =
  if cfg.shards < 1 then invalid_arg "Server.run: shards";
  if cfg.jobs < 0 then invalid_arg "Server.run: jobs";
  if cfg.tenants < 1 || cfg.tenants > 254 then invalid_arg "Server.run: tenants";
  if cfg.flows_per_tenant < 1 then invalid_arg "Server.run: flows_per_tenant";
  if not (cfg.duration_s > 0.) then invalid_arg "Server.run: duration_s";
  if not (cfg.interval_s > 0.) then invalid_arg "Server.run: interval_s";
  if cfg.sg_max < 1 then invalid_arg "Server.run: sg_max"

let snapshot_of ~tick ~virtual_s shards gens =
  let k = Shard.op_count in
  let ops = Array.make k 0 in
  let mean_cycles = Array.make k 0. in
  let p50 = Array.make k 0 in
  let p99 = Array.make k 0 in
  let p999 = Array.make k 0 in
  let max_cycles = Array.make k 0 in
  let win_ops = Array.make k 0 in
  let win_p50 = Array.make k 0 in
  let win_p99 = Array.make k 0 in
  let win_p999 = Array.make k 0 in
  for i = 0 to k - 1 do
    let h = Histogram.create () in
    Array.iter
      (fun sh -> Histogram.merge_into ~dst:h (Shard.hist sh (Shard.op_of_index i)))
      shards;
    ops.(i) <- Histogram.count h;
    mean_cycles.(i) <- Histogram.mean h;
    if Histogram.count h > 0 then begin
      p50.(i) <- Histogram.quantile h 0.5;
      p99.(i) <- Histogram.quantile h 0.99;
      p999.(i) <- Histogram.quantile h 0.999;
      max_cycles.(i) <- Histogram.max_recorded h
    end;
    (* interval window: only what landed since the previous snapshot
       barrier, folded across shards (the checkpoint lives in each
       shard histogram, advanced here at the barrier) *)
    let w = Histogram.create () in
    Array.iter
      (fun sh -> Histogram.interval_into (Shard.hist sh (Shard.op_of_index i)) ~into:w)
      shards;
    win_ops.(i) <- Histogram.count w;
    if Histogram.count w > 0 then begin
      win_p50.(i) <- Histogram.quantile w 0.5;
      win_p99.(i) <- Histogram.quantile w 0.99;
      win_p999.(i) <- Histogram.quantile w 0.999
    end
  done;
  let sum f arr = Array.fold_left (fun acc x -> acc + f x) 0 arr in
  {
    tick;
    virtual_s;
    ops;
    mean_cycles;
    p50;
    p99;
    p999;
    max_cycles;
    win_ops;
    win_p50;
    win_p99;
    win_p999;
    requests = sum Loadgen.requests gens;
    connections = sum Loadgen.connections gens;
    dropped = sum Loadgen.dropped gens;
    faults = sum Shard.faults shards;
  }

(* Per-tenant rollup across shards: each shard hosts one domain per
   tenant index, so "tenant i" aggregates the i-th domain of every
   shard (the same tenant class the loadgen drives with one spec). *)
let tenant_stats_of shards ~tenants =
  Array.init tenants (fun tn ->
      let h = Histogram.create () in
      let hits = ref 0 and misses = ref 0 in
      Array.iter
        (fun sh ->
          if tn < Shard.tenants sh then begin
            Histogram.merge_into ~dst:h (Shard.tenant_hist sh ~tenant:tn);
            let s = Shard.iotlb_stats sh ~tenant:tn in
            hits := !hits + s.Rio_domain.Shared_iotlb.hits;
            misses := !misses + s.Rio_domain.Shared_iotlb.misses
          end)
        shards;
      let n = Histogram.count h in
      {
        t_ops = n;
        t_hits = !hits;
        t_misses = !misses;
        t_p50 = (if n > 0 then Histogram.quantile h 0.5 else 0);
        t_p99 = (if n > 0 then Histogram.quantile h 0.99 else 0);
        t_p999 = (if n > 0 then Histogram.quantile h 0.999 else 0);
      })

let run ?stop ?(on_snapshot = fun _ -> ()) cfg =
  validate cfg;
  let stop =
    match stop with Some s -> s | None -> Rio_exec.Flag.create ()
  in
  let cps = Cost_model.cycles_per_second Cost_model.default in
  let total = max 1 (int_of_float (cfg.duration_s *. cps)) in
  let interval = max 1 (int_of_float (cfg.interval_s *. cps)) in
  let shards =
    Array.init cfg.shards (fun id ->
        Shard.create ~id ~tenants:cfg.tenants ~iotlb_capacity:cfg.iotlb_capacity
          ~iotlb_policy:cfg.iotlb_policy ~rcache:cfg.rcache ())
  in
  let specs = Loadgen.default_specs ~tenants:cfg.tenants in
  let gens =
    Array.map
      (fun sh ->
        Loadgen.create ~shard:sh ~specs ~seed:cfg.seed
          ~flows_per_tenant:cfg.flows_per_tenant ~sg_max:cfg.sg_max)
      shards
  in
  let snapshots = ref [] in
  let tick = ref 0 in
  let finished = ref false in
  while not !finished do
    incr tick;
    let deadline = min total (!tick * interval) in
    let tasks =
      Array.map (fun g () -> Loadgen.run_until g ~deadline ~stop) gens
    in
    ignore (Rio_exec.Pool.run ~jobs:cfg.jobs tasks : unit array);
    let snap =
      snapshot_of ~tick:!tick ~virtual_s:(float_of_int deadline /. cps) shards
        gens
    in
    snapshots := snap :: !snapshots;
    on_snapshot snap;
    if deadline >= total || Rio_exec.Flag.get stop then finished := true
  done;
  {
    config = cfg;
    snapshots = List.rev !snapshots;
    tenants = tenant_stats_of shards ~tenants:cfg.tenants;
    stopped = Rio_exec.Flag.get stop;
  }

(* {1 Rendering} *)

let total_ops snap = Array.fold_left ( + ) 0 snap.ops

let render_summary r =
  let s = final r in
  let cfg = r.config in
  let b = Buffer.create 1024 in
  Buffer.add_string b "riommu-serve summary\n";
  Printf.bprintf b
    "  shards %d  tenants/shard %d  flows/tenant %d  seed %d  rcache %s  \
     iotlb %d/%s  sg_max %d\n"
    cfg.shards cfg.tenants cfg.flows_per_tenant cfg.seed
    (if cfg.rcache then "on" else "off")
    cfg.iotlb_capacity
    (Rio_domain.Shared_iotlb.policy_name cfg.iotlb_policy)
    cfg.sg_max;
  Printf.bprintf b
    "  simulated %.3f s  requests %d  connections %d  dropped %d  faults %d%s\n"
    s.virtual_s s.requests s.connections s.dropped s.faults
    (if r.stopped then "  (stopped early)" else "");
  Printf.bprintf b "  %-10s %12s %12s %8s %8s %8s %8s\n" "op" "ops" "mean(cy)"
    "p50" "p99" "p99.9" "max";
  for i = 0 to Shard.op_count - 1 do
    Printf.bprintf b "  %-10s %12d %12.1f %8d %8d %8d %8d\n"
      (Shard.op_name (Shard.op_of_index i))
      s.ops.(i) s.mean_cycles.(i) s.p50.(i) s.p99.(i) s.p999.(i)
      s.max_cycles.(i)
  done;
  Printf.bprintf b "  total ops %d\n" (total_ops s);
  Buffer.contents b

let alloc_probe () =
  let shard =
    Shard.create ~id:0 ~tenants:1 ~iotlb_capacity:64
      ~iotlb_policy:Rio_domain.Shared_iotlb.Shared ~rcache:true ~buf_pool:8 ()
  in
  let tenant = 0 in
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let words = Array.make Shard.op_count 0. in
  let measure op f =
    let a = Gc.minor_words () in
    f ();
    let b = Gc.minor_words () in
    words.(op) <- words.(op) +. (b -. a -. overhead)
  in
  (* Churn the way the service does: each round maps [live] buffers,
     translates each once (IOTLB misses), unmaps them, then does the
     same through [live / nseg] scatter-gather batches. Warm rounds grow
     the magazines and the table arena to this working set; measured
     rounds charge each op kind's loop to its own counter (unmap_sg
     records as an unmap, as in the service's histograms). *)
  let live = 64 and nseg = 4 in
  let batches = live / nseg in
  let iovas = Array.make live 0 in
  let sg_iovas = Array.init batches (fun _ -> Array.make nseg 0) in
  let sg_phys = Array.init nseg (fun _ -> Shard.next_buf shard) in
  let sg_bytes = Array.make nseg 4_096 in
  let map_all () =
    for i = 0 to live - 1 do
      let v = Shard.map shard ~tenant ~phys:(Shard.next_buf shard) ~bytes:512 in
      if v < 0 then failwith "Server.alloc_probe: exhausted";
      iovas.(i) <- v
    done
  in
  let translate_all () =
    for i = 0 to live - 1 do
      ignore
        (Shard.translate_record shard ~tenant ~iova:iovas.(i) ~write:false
          : Rio_memory.Addr.phys)
    done
  in
  let unmap_all () =
    for i = 0 to live - 1 do
      match Shard.unmap_record shard ~tenant ~iova:iovas.(i) with
      | Ok () -> ()
      | Error `Not_mapped -> failwith "Server.alloc_probe: not mapped"
    done
  in
  let map_sg_all () =
    for k = 0 to batches - 1 do
      if
        Shard.map_sg shard ~tenant ~phys:sg_phys ~bytes:sg_bytes ~n:nseg
          ~iovas:sg_iovas.(k)
        < 0
      then failwith "Server.alloc_probe: exhausted"
    done
  in
  let unmap_sg_all () =
    for k = 0 to batches - 1 do
      match Shard.unmap_sg_record shard ~tenant ~iovas:sg_iovas.(k) ~n:nseg with
      | Ok () -> ()
      | Error `Not_mapped -> failwith "Server.alloc_probe: not mapped"
    done
  in
  let round run =
    run Shard.Map map_all;
    run Shard.Translate translate_all;
    run Shard.Unmap unmap_all;
    run Shard.Map_sg map_sg_all;
    run Shard.Unmap unmap_sg_all
  in
  let rounds = 64 in
  for _ = 1 to rounds do
    round (fun _ f -> f ())
  done;
  for _ = 1 to rounds do
    round (fun op f -> measure (Shard.op_index op) f)
  done;
  let per_op op calls =
    let i = Shard.op_index op in
    let w = words.(i) /. float_of_int (rounds * calls) in
    words.(i) <- (if w < 0. then 0. else w)
  in
  per_op Shard.Map live;
  per_op Shard.Translate live;
  per_op Shard.Unmap (live + batches);
  per_op Shard.Map_sg batches;
  words

(* Shared with the socket transport's stats JSON (rio_serve_net): the
   per-tenant section is schema-identical in both, so dashboards parse
   one shape. *)
let bprint_tenants b tenants =
  Printf.bprintf b "  \"tenants\": [\n";
  Array.iteri
    (fun i t ->
      let lookups = t.t_hits + t.t_misses in
      Printf.bprintf b
        "    { \"tenant\": %d, \"ops\": %d, \"iotlb_hit_rate\": %.4f, \
         \"p50_cycles\": %d, \"p99_cycles\": %d, \"p999_cycles\": %d }%s\n"
        i t.t_ops
        (if lookups > 0 then float_of_int t.t_hits /. float_of_int lookups
         else 0.)
        t.t_p50 t.t_p99 t.t_p999
        (if i = Array.length tenants - 1 then "" else ","))
    tenants;
  Printf.bprintf b "  ]"

let render_json r ~wall_ns ~words_per_op =
  if Array.length words_per_op <> Shard.op_count then
    invalid_arg "Server.render_json: words_per_op size";
  let s = final r in
  let cfg = r.config in
  let cost = Cost_model.default in
  let total = total_ops s in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n  \"schema\": \"riommu-serve/1\",\n";
  Printf.bprintf b
    "  \"seed\": %d, \"shards\": %d, \"jobs\": %d, \"tenants\": %d, \
     \"flows_per_tenant\": %d,\n"
    cfg.seed cfg.shards cfg.jobs cfg.tenants cfg.flows_per_tenant;
  Printf.bprintf b
    "  \"duration_simulated_s\": %.6f, \"stopped_early\": %b,\n" s.virtual_s
    r.stopped;
  Printf.bprintf b
    "  \"requests\": %d, \"connections\": %d, \"dropped\": %d, \"faults\": %d,\n"
    s.requests s.connections s.dropped s.faults;
  Printf.bprintf b
    "  \"total_ops\": %d, \"wall_ns\": %.0f, \"ops_per_sec\": %.0f,\n" total
    wall_ns
    (if wall_ns > 0. then float_of_int total /. (wall_ns /. 1e9) else 0.);
  Printf.bprintf b "  \"groups\": [\n";
  (* every op kind the service runs is lint-gated allocation-free, so
     each group is marked gated and must read 0.00 words/op *)
  for i = 0 to Shard.op_count - 1 do
    let op = Shard.op_of_index i in
    Printf.bprintf b
      "    { \"name\": \"serve/%s\", \"iters\": %d, \"ns_per_op\": %.2f, \
       \"words_per_op\": %.2f, \"gated_zero_alloc\": true, \"p50_cycles\": %d, \
       \"p99_cycles\": %d, \"p999_cycles\": %d, \"max_cycles\": %d }%s\n"
      (Shard.op_name op) s.ops.(i)
      (Cost_model.cycles_to_ns cost (int_of_float s.mean_cycles.(i)))
      words_per_op.(i)
      s.p50.(i) s.p99.(i) s.p999.(i) s.max_cycles.(i)
      (if i = Shard.op_count - 1 then "" else ",")
  done;
  Printf.bprintf b "  ],\n";
  bprint_tenants b r.tenants;
  Printf.bprintf b ",\n";
  (* interval windows: per-reporting-tick percentiles (not cumulative),
     arrays indexed by Shard.op_index like the snapshot arrays *)
  Printf.bprintf b "  \"intervals\": [\n";
  let n_snap = List.length r.snapshots in
  List.iteri
    (fun i sn ->
      let arr a =
        String.concat ", " (Array.to_list (Array.map string_of_int a))
      in
      Printf.bprintf b
        "    { \"tick\": %d, \"virtual_s\": %.6f, \"win_ops\": [%s], \
         \"win_p50\": [%s], \"win_p99\": [%s], \"win_p999\": [%s] }%s\n"
        sn.tick sn.virtual_s (arr sn.win_ops) (arr sn.win_p50)
        (arr sn.win_p99) (arr sn.win_p999)
        (if i = n_snap - 1 then "" else ","))
    r.snapshots;
  Printf.bprintf b "  ]\n}\n";
  Buffer.contents b
