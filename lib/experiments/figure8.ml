module Mode = Rio_protect.Mode
module Paper = Rio_report.Paper
module Table = Rio_report.Table
module Cost_model = Rio_sim.Cost_model
module Perf_model = Rio_workload.Perf_model
module Netperf = Rio_workload.Netperf
module Nic_profiles = Rio_device.Nic_profiles

type point = { cycles : float; model_gbps : float; simulated_gbps : float }

let sweep ?(points = 12) ?(quick = false) () =
  ignore quick;
  let profile = Nic_profiles.mlx in
  let cost = Cost_model.default in
  let c_none = float_of_int profile.Nic_profiles.c_other in
  let c_max = 20_000. in
  List.init points (fun i ->
      (* logarithmic spacing, like the paper's x axis *)
      let frac = float_of_int i /. float_of_int (points - 1) in
      let cycles = c_none *. Float.pow (c_max /. c_none) frac in
      let model_gbps =
        Perf_model.gbps ~cost ~bytes_per_packet:profile.Nic_profiles.mtu
          ~cycles_per_packet:cycles
      in
      (* the busy-wait experiment: the unprotected driver path plus
         (cycles - c_none) of busy-waiting per packet *)
      let simulated_gbps, _ =
        Perf_model.capped_gbps ~cost
          ~line_rate_gbps:profile.Nic_profiles.line_rate_gbps
          ~bytes_per_packet:profile.Nic_profiles.mtu ~cycles_per_packet:cycles
      in
      { cycles; model_gbps; simulated_gbps })

let reduce ~quick results =
  let pts = sweep ~quick () in
  let t =
    Table.make ~headers:[ "cycles/packet"; "model Gbps"; "busy-wait Gbps" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          Table.cell_f ~decimals:0 p.cycles;
          Table.cell_f p.model_gbps;
          Table.cell_f p.simulated_gbps;
        ])
    pts;
  (* the seven modes as cross points *)
  let crosses = Table.make ~headers:[ "mode"; "measured C"; "throughput Gbps" ] in
  List.iter
    (fun (mode, r) ->
      Table.add_row crosses
        [
          Mode.name mode;
          Table.cell_f ~decimals:0 r.Netperf.cycles_per_packet;
          Table.cell_f r.Netperf.gbps;
        ])
    results;
  let mode_points =
    List.map
      (fun (mode, r) ->
        (Mode.name mode, r.Netperf.cycles_per_packet, r.Netperf.gbps))
      results
  in
  let chart =
    Rio_report.Chart.scatter ~x_label:"cycles per packet" ~y_label:"Gbps"
      ~curve:(List.map (fun p -> (p.cycles, p.model_gbps)) pts)
      ~points:mode_points ()
  in
  {
    Exp.id = "figure8";
    title = "Throughput of Netperf stream vs cycles spent per packet";
    body =
      Printf.sprintf
        "-- busy-wait sweep --\n%s\n-- IOMMU modes (crosses) --\n%s\n%s"
        (Table.render t) (Table.render crosses) chart;
    notes =
      [
        Printf.sprintf "model: Gbps(C) = 1500B x 8 x S/C at S = %.2f GHz"
          Paper.clock_ghz;
        "the paper validated this model against hardware; the reproduction \
         inherits it (§3.3), so sweep and model coincide except where the \
         40G line rate would clip";
      ];
  }

let plan ?(quick = false) ?(seed = 42) () =
  let profile = Nic_profiles.mlx in
  let packets = if quick then 6_000 else 50_000 in
  let warmup = if quick then 10_000 else 140_000 in
  let nseed = Seeds.netperf_stream ~seed in
  Exp.plan_of_list
    (List.map
       (fun mode () ->
         (mode, Netperf.stream ~packets ~warmup ~seed:nseed ~mode ~profile ()))
       Mode.evaluated)
    ~reduce:(reduce ~quick)
