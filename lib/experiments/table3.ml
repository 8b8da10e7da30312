module Mode = Rio_protect.Mode
module Paper = Rio_report.Paper
module Table = Rio_report.Table
module Compare = Rio_report.Compare
module Netperf = Rio_workload.Netperf
module Nic_profiles = Rio_device.Nic_profiles

let nics = [ (Paper.Mlx, Nic_profiles.mlx); (Paper.Brcm, Nic_profiles.brcm) ]

let reduce results =
  (* results arrive flat in (nic-major, mode-minor) cell order *)
  let t = Table.make ~headers:("nic" :: List.map Mode.name Mode.evaluated) in
  List.iter
    (fun (nic, _) ->
      let cells =
        List.filter_map
          (fun ((n, mode), (r : Netperf.rr_result)) ->
            if n <> nic then None
            else
              Some
                (match Paper.table3_rtt_us nic mode with
                | Some paper ->
                    Compare.cell ~tolerance:0.15 ~paper ~measured:r.Netperf.rtt_us ()
                | None -> Table.cell_f r.Netperf.rtt_us))
          results
      in
      Table.add_row t (Paper.nic_name nic :: cells))
    nics;
  {
    Exp.id = "table3";
    title = "Netperf RR round-trip time in microseconds (paper/measured)";
    body = Table.render t;
    notes =
      [
        "the 'none' column is the calibrated wire+stack baseline; protected modes \
         add their measured per-transaction (un)mapping cycles";
      ];
  }

let plan ?(quick = false) ?(seed = 42) () =
  let transactions = if quick then 500 else 5_000 in
  let rseed = Seeds.netperf_rr ~seed in
  Exp.plan_of_list
    (List.concat_map
       (fun (nic, profile) ->
         List.map
           (fun mode () ->
             ((nic, mode), Netperf.rr ~transactions ~seed:rseed ~mode ~profile ()))
           Mode.evaluated)
       nics)
    ~reduce
