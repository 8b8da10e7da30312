(* riommu-cli: run the paper's experiments and one-off simulations.

     riommu-cli list
     riommu-cli run table1 figure7 ... [--quick]
     riommu-cli run --all [--quick]
     riommu-cli stream --nic mlx --mode riommu [--packets N]
     riommu-cli rr --nic brcm --mode strict
     riommu-cli tenants --mode strict --policy shared --noisy 4 *)

open Cmdliner

let mode_conv =
  let parse s =
    match Rio_protect.Mode.of_name s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown mode %S (expected one of: %s)" s
               (String.concat ", "
                  (List.map Rio_protect.Mode.name Rio_protect.Mode.all))))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Rio_protect.Mode.name m))

let nic_conv =
  let parse s =
    match Rio_device.Nic_profiles.by_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown NIC %S (mlx or brcm)" s))
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt p.Rio_device.Nic_profiles.name)

(* shared experiment options *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the experiment cell pool: 1 runs sequentially, \
           0 picks one worker per core. Results are byte-identical at every \
           level.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Root experiment seed; every cell derives its own stream from it, \
           so output depends only on this value, never on scheduling.")

(* list *)

let list_cmd =
  let doc = "List the reproducible experiments (one per paper table/figure)." in
  let run () =
    List.iter print_endline Rio_experiments.Registry.ids;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* run *)

let run_cmd =
  let doc =
    "Run experiments by id (or --all) as one flat cell pool. With --jobs N \
     every requested experiment's cells are scheduled together across N \
     domains; output is byte-identical to a sequential run."
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids.")
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.") in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorter runs (less fidelity).")
  in
  let run all quick seed jobs ids =
    let ids = if all then Rio_experiments.Registry.ids else ids in
    if ids = [] then begin
      prerr_endline "no experiments given; try --all or `riommu-cli list`";
      2
    end
    else begin
      let missing =
        List.filter (fun id -> Rio_experiments.Registry.find id = None) ids
      in
      match missing with
      | _ :: _ ->
          prerr_endline
            (Rio_experiments.Registry.unknown_id_message
               (String.concat ", " missing));
          2
      | [] ->
          (* all requested experiments share one cell pool; results print
             in the order the ids were given *)
          let plans =
            List.map
              (fun id ->
                let plan = Option.get (Rio_experiments.Registry.find id) in
                (id, plan ~quick ~seed ()))
              ids
          in
          List.iter
            (fun (_, exp) ->
              print_string (Rio_experiments.Exp.render exp);
              print_newline ())
            (Rio_experiments.Exp.run_plans ~jobs plans);
          0
    end
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ all $ quick $ seed_arg $ jobs_arg $ ids)

(* stream *)

let stream_cmd =
  let doc = "One Netperf-stream measurement for a NIC profile and mode." in
  let nic =
    Arg.(
      value
      & opt nic_conv Rio_device.Nic_profiles.mlx
      & info [ "nic" ] ~docv:"NIC" ~doc:"mlx or brcm.")
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Rio_protect.Mode.Riommu
      & info [ "mode" ] ~docv:"MODE" ~doc:"Protection mode.")
  in
  let packets =
    Arg.(value & opt int 50_000 & info [ "packets" ] ~doc:"Measured packets.")
  in
  let warmup =
    Arg.(value & opt int 140_000 & info [ "warmup" ] ~doc:"Warmup packets.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let rcache =
    Arg.(
      value & flag
      & info [ "rcache" ]
          ~doc:
            "Enable the IOVA magazine cache (Linux iova-rcache) in front of \
             the allocator (baseline-IOMMU modes only).")
  in
  let run profile mode packets warmup seed rcache =
    let r =
      Rio_workload.Netperf.stream ~packets ~warmup ~seed ~rcache ~mode ~profile ()
    in
    Printf.printf
      "nic=%s mode=%s\n\
       protection cycles/packet  %10.0f\n\
       total cycles/packet       %10.0f\n\
       throughput                %10.2f Gbps%s\n\
       cpu                       %10.0f%%\n\
       faults                    %10d\n"
      r.Rio_workload.Netperf.nic
      (Rio_protect.Mode.name r.Rio_workload.Netperf.mode)
      r.Rio_workload.Netperf.protection_per_packet
      r.Rio_workload.Netperf.cycles_per_packet r.Rio_workload.Netperf.gbps
      (if r.Rio_workload.Netperf.line_limited then " (line rate)" else "")
      (100. *. r.Rio_workload.Netperf.cpu)
      r.Rio_workload.Netperf.faults;
    0
  in
  Cmd.v (Cmd.info "stream" ~doc)
    Term.(const run $ nic $ mode $ packets $ warmup $ seed $ rcache)

(* rr *)

let rr_cmd =
  let doc = "One Netperf-RR (latency) measurement." in
  let nic =
    Arg.(
      value
      & opt nic_conv Rio_device.Nic_profiles.mlx
      & info [ "nic" ] ~docv:"NIC" ~doc:"mlx or brcm.")
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Rio_protect.Mode.Riommu
      & info [ "mode" ] ~docv:"MODE" ~doc:"Protection mode.")
  in
  let transactions =
    Arg.(value & opt int 5_000 & info [ "transactions" ] ~doc:"Transactions.")
  in
  let rcache =
    Arg.(
      value & flag
      & info [ "rcache" ] ~doc:"Enable the IOVA magazine cache.")
  in
  let run profile mode transactions rcache =
    let r = Rio_workload.Netperf.rr ~transactions ~rcache ~mode ~profile () in
    Printf.printf
      "nic=%s mode=%s\nround trip  %8.2f us\nrate        %8.0f transactions/s\ncpu         %8.0f%%\n"
      r.Rio_workload.Netperf.nic
      (Rio_protect.Mode.name r.Rio_workload.Netperf.mode)
      r.Rio_workload.Netperf.rtt_us r.Rio_workload.Netperf.transactions_per_sec
      (100. *. r.Rio_workload.Netperf.cpu);
    0
  in
  Cmd.v (Cmd.info "rr" ~doc) Term.(const run $ nic $ mode $ transactions $ rcache)

(* tenants *)

let policy_conv =
  let parse s =
    match Rio_domain.Shared_iotlb.policy_of_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown policy %S (expected shared, partitioned or quota:N)" s))
  in
  Arg.conv
    ( parse,
      fun fmt p ->
        Format.pp_print_string fmt (Rio_domain.Shared_iotlb.policy_name p) )

let tenants_cmd =
  let doc =
    "Multi-tenant run: one latency-critical NIC tenant plus noisy NVMe/SATA \
     neighbors over a shared IOMMU; per-tenant throughput and IOTLB stats."
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Rio_protect.Mode.Strict
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "strict, defer, riommu or riommu-. Every tenant runs the \
             constant-time IOVA allocator, so strict and defer are the \
             paper's strict+ and defer+; the + names are rejected.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Rio_domain.Shared_iotlb.Shared
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"IOTLB policy: shared, partitioned or quota:N.")
  in
  let noisy =
    Arg.(value & opt int 4 & info [ "noisy" ] ~doc:"Noisy-neighbor count.")
  in
  let ios =
    Arg.(value & opt int 1_000 & info [ "ios" ] ~doc:"I/Os per tenant.")
  in
  let capacity =
    Arg.(value & opt int 128 & info [ "capacity" ] ~doc:"IOTLB entries.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let run mode policy noisy ios capacity seed =
    let open Rio_domain in
    match mode with
    | Rio_protect.Mode.(None_ | Hw_passthrough | Sw_passthrough) ->
        Printf.eprintf
          "riommu-cli: tenants: mode %s has no protection path; use the \
           strict, defer or riommu families.\n"
          (Rio_protect.Mode.name mode);
        2
    | Rio_protect.Mode.(Strict_plus | Defer_plus) ->
        Printf.eprintf
          "riommu-cli: tenants: every tenant already runs the constant-time \
           IOVA allocator; use %s, not %s.\n"
          (if mode = Rio_protect.Mode.Strict_plus then "strict" else "defer")
          (Rio_protect.Mode.name mode);
        2
    | _ ->
    let open Rio_experiments in
    let victim =
      Scheduler.nic_tenant ~latency_critical:true ~name:"victim" ()
    in
    let neighbors =
      List.init noisy (fun i ->
          if i mod 2 = 0 then
            Scheduler.nvme_tenant ~name:(Printf.sprintf "nvme%d" i) ()
          else Scheduler.sata_tenant ~name:(Printf.sprintf "sata%d" i) ())
    in
    let cfg =
      Scheduler.default_config ~iotlb_capacity:capacity ~ios_per_tenant:ios
        ~seed ~mode ~policy ()
    in
    let results = Scheduler.run cfg (victim :: neighbors) in
    Printf.printf "mode=%s policy=%s capacity=%d tenants=%d\n\n"
      (Rio_protect.Mode.name mode)
      (Shared_iotlb.policy_name policy)
      capacity (1 + noisy);
    let t =
      Rio_report.Table.make
        ~headers:
          [
            "tenant"; "class"; "ios"; "ops/Mcyc"; "cycles/io"; "miss rate";
            "evicted by other"; "faults";
          ]
    in
    List.iter
      (fun r ->
        Rio_report.Table.add_row t
          [
            r.Scheduler.spec.Scheduler.name;
            Scheduler.class_name r.Scheduler.spec.Scheduler.device;
            Rio_report.Table.cell_i r.Scheduler.ios;
            Rio_report.Table.cell_f ~decimals:1 r.Scheduler.ops_per_mcycle;
            Rio_report.Table.cell_f ~decimals:0 r.Scheduler.cycles_per_io;
            Rio_report.Table.cell_pct r.Scheduler.miss_rate;
            Rio_report.Table.cell_i r.Scheduler.evictions_by_other;
            Rio_report.Table.cell_i r.Scheduler.faults;
          ])
      results;
    print_string (Rio_report.Table.render t);
    0
  in
  Cmd.v (Cmd.info "tenants" ~doc)
    Term.(const run $ mode $ policy $ noisy $ ios $ capacity $ seed)

(* trace *)

let trace_cmd =
  let doc =
    "Capture a DMA trace (maps, unmaps, device accesses) from a NIC run \
     and write it as CSV."
  in
  let nic =
    Arg.(
      value
      & opt nic_conv Rio_device.Nic_profiles.mlx
      & info [ "nic" ] ~docv:"NIC" ~doc:"mlx or brcm.")
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Rio_protect.Mode.Strict
      & info [ "mode" ] ~docv:"MODE" ~doc:"Protection mode.")
  in
  let packets =
    Arg.(value & opt int 2_000 & info [ "packets" ] ~doc:"Packets to transmit.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run profile mode packets out =
    let profile =
      { profile with Rio_device.Nic_profiles.rx_ring = 128; tx_ring = 128 }
    in
    let api =
      Rio_protect.Dma_api.create
        {
          (Rio_protect.Dma_api.default_config ~mode) with
          Rio_protect.Dma_api.ring_sizes = Rio_device.Nic.ring_sizes profile;
        }
    in
    let log = Rio_protect.Op_log.create () in
    Rio_protect.Dma_api.set_log api (Some log);
    let rng = Rio_sim.Rng.create ~seed:31 in
    let mem = Rio_memory.Phys_mem.create () in
    let nic = Rio_device.Nic.create ~data_movement:false ~profile ~api ~mem ~rng () in
    ignore (Rio_device.Nic.rx_fill nic);
    let payload = Bytes.make profile.Rio_device.Nic_profiles.mtu 'x' in
    let sent = ref 0 in
    while !sent < packets do
      for _ = 1 to 8 do
        ignore (Rio_device.Nic.device_rx_deliver nic ~payload:(Bytes.make 64 'a'))
      done;
      ignore (Rio_device.Nic.rx_reap nic);
      ignore (Rio_device.Nic.rx_fill nic);
      ignore (Rio_device.Nic.tx_reclaim nic);
      for _ = 1 to 16 do
        match Rio_device.Nic.tx_submit nic ~payload with
        | Ok () -> incr sent
        | Error (`Ring_full | `Map_failed) -> ()
      done;
      ignore (Rio_device.Nic.device_tx_process nic ~max:16)
    done;
    let csv = Rio_protect.Op_log.to_csv log in
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc csv;
        close_out oc;
        Printf.printf "wrote %d events to %s\n" (Rio_protect.Op_log.length log) path
    | None -> print_string csv);
    0
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ nic $ mode $ packets $ out)

let () =
  let doc = "rIOMMU reproduction: experiments and simulations" in
  let info = Cmd.info "riommu-cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; stream_cmd; rr_cmd; tenants_cmd; trace_cmd ]))
