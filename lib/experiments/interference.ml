module Mode = Rio_protect.Mode
module Shared_iotlb = Rio_domain.Shared_iotlb
module Table = Rio_report.Table

type cell = {
  mode : Mode.t;
  policy : Shared_iotlb.policy;
  noisy : int;
  victim_ops_per_mcycle : float;
  victim_degradation : float;
  victim_miss_rate : float;
  victim_evicted_by_other : int;
  noisy_ops_per_mcycle : float;
}

(* The (mode, policy) groups, in table order. The rIOMMU has no shared
   IOTLB for a policy to act on, so it runs once, under [Shared]. *)
let groups =
  List.concat_map
    (fun mode ->
      if Mode.is_riommu mode then [ (mode, Shared_iotlb.Shared) ]
      else
        List.map
          (fun policy -> (mode, policy))
          [ Shared_iotlb.Shared; Shared_iotlb.Partitioned ])
    [ Mode.Strict; Mode.Defer; Mode.Riommu ]

(* Alternate NVMe and SATA neighbors so the noise mixes device classes. *)
let neighbors n =
  List.init n (fun i ->
      if i mod 2 = 0 then
        Scheduler.nvme_tenant ~name:(Printf.sprintf "nvme%d" i) ()
      else Scheduler.sata_tenant ~name:(Printf.sprintf "sata%d" i) ())

let one ~ios_per_tenant ~seed ~mode ~policy ~noisy ~baseline =
  let victim = Scheduler.nic_tenant ~latency_critical:true ~name:"victim" () in
  let cfg =
    Scheduler.default_config ~ios_per_tenant ~seed ~mode ~policy ()
  in
  let results = Scheduler.run cfg (victim :: neighbors noisy) in
  let v = List.hd results in
  let noisy_thr =
    List.fold_left
      (fun acc r -> acc +. r.Scheduler.ops_per_mcycle)
      0. (List.tl results)
  in
  let degradation =
    if baseline <= 0. then 0.
    else max 0. ((baseline -. v.Scheduler.ops_per_mcycle) /. baseline)
  in
  {
    mode;
    policy;
    noisy;
    victim_ops_per_mcycle = v.Scheduler.ops_per_mcycle;
    victim_degradation = degradation;
    victim_miss_rate = v.Scheduler.miss_rate;
    victim_evicted_by_other = v.Scheduler.evictions_by_other;
    noisy_ops_per_mcycle = noisy_thr;
  }

let measure ?(ios_per_tenant = 1_000) ?(seed = 42) ~noisy_counts () =
  List.concat_map
    (fun (mode, policy) ->
      (* victim-alone run anchors the degradation *)
      let alone =
        one ~ios_per_tenant ~seed ~mode ~policy ~noisy:0 ~baseline:0.
      in
      let baseline = alone.victim_ops_per_mcycle in
      List.map
        (fun noisy -> one ~ios_per_tenant ~seed ~mode ~policy ~noisy ~baseline)
        noisy_counts)
    groups

let riommu_note (noisy, degradation, walks) =
  Printf.sprintf
    "riommu: every tenant is an rDEVICE on one shared rIOMMU (one rIOTLB \
     entry per ring); with %d neighbors the victim loses %s, and %s of its \
     translations walk the flat table (its miss rate) because random \
     working-set touches miss the ring's prefetched next rPTE"
    noisy (Table.cell_pct degradation) (Table.cell_pct walks)

let reduce cells =
  (* cells arrive (mode, policy)-major with noisy ascending; the
     victim-alone run (noisy = 0) leads each group and anchors the
     degradation of the rows that follow it *)
  let t =
    Table.make
      ~headers:
        [
          "mode";
          "policy";
          "noisy";
          "victim ops/Mcyc";
          "degradation";
          "miss rate";
          "evicted by other";
          "noisy agg ops/Mcyc";
        ]
  in
  let baseline = ref 0. in
  let last = ref None in
  (* the riommu row with the most neighbors: (noisy, degradation, walk rate) *)
  let riommu = ref None in
  List.iter
    (fun c ->
      if c.noisy = 0 then baseline := c.victim_ops_per_mcycle
      else begin
        (match !last with
        | Some (m, p) when m <> c.mode || p <> c.policy -> Table.add_separator t
        | _ -> ());
        last := Some (c.mode, c.policy);
        let degradation =
          if !baseline <= 0. then 0.
          else max 0. ((!baseline -. c.victim_ops_per_mcycle) /. !baseline)
        in
        if Mode.is_riommu c.mode then
          riommu := Some (c.noisy, degradation, c.victim_miss_rate);
        Table.add_row t
          [
            Mode.name c.mode;
            (if Mode.is_riommu c.mode then "-"
             else Shared_iotlb.policy_name c.policy);
            Table.cell_i c.noisy;
            Table.cell_f ~decimals:1 c.victim_ops_per_mcycle;
            Table.cell_pct degradation;
            Table.cell_pct c.victim_miss_rate;
            Table.cell_i c.victim_evicted_by_other;
            Table.cell_f ~decimals:1 c.noisy_ops_per_mcycle;
          ]
      end)
    cells;
  {
    Exp.id = "interference";
    title =
      "Multi-tenant IOTLB interference: noisy neighbors vs. a \
       latency-critical tenant";
    body = Table.render t;
    notes =
      [
        "shared policy: neighbors evict the victim's IOTLB entries, so its \
         per-I/O cost grows with tenant count (contention is observable)";
        "partitioned policy: per-domain slices + domain-scoped invalidation \
         hold the victim flat (contention is mitigable)";
      ]
      @ Option.to_list (Option.map riommu_note !riommu);
  }

let plan ?(quick = false) ?(seed = 42) () =
  (* every (mode, policy, noisy) point - including the victim-alone
     anchors - is an independent cell; degradation is computed in the
     reduce so no cell depends on another's result *)
  let noisy_counts = [ 0; 2; 4; 8 ] in
  let ios_per_tenant = if quick then 300 else 1_500 in
  let sseed = Seeds.interference ~seed ~trial:0 in
  Exp.plan_of_list
    (List.concat_map
       (fun (mode, policy) ->
         List.map
           (fun noisy () ->
             one ~ios_per_tenant ~seed:sseed ~mode ~policy ~noisy ~baseline:0.)
           noisy_counts)
       groups)
    ~reduce
