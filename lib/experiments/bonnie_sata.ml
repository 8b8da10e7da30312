module Mode = Rio_protect.Mode
module Table = Rio_report.Table
module Bonnie = Rio_workload.Bonnie

let drives = [ ("SATA HDD (150 MB/s)", 150.); ("SATA SSD (500 MB/s)", 500.) ]
let modes = [ Mode.Strict; Mode.None_ ]

let reduce results =
  (* results arrive flat in (drive-major, mode-minor) cell order *)
  let t =
    Table.make
      ~headers:[ "drive"; "mode"; "MB/s"; "cpu busy"; "disk-bound" ]
  in
  List.iter
    (fun (drive, _) ->
      let rows =
        List.filter_map
          (fun ((d, mode), r) -> if d = drive then Some (mode, r) else None)
          results
      in
      List.iter
        (fun (mode, (r : Bonnie.result)) ->
          Table.add_row t
            [
              drive;
              Mode.name mode;
              Table.cell_f ~decimals:1 r.Bonnie.mbps;
              Table.cell_pct r.Bonnie.cpu_fraction;
              (if r.Bonnie.disk_seconds >= r.Bonnie.cpu_seconds then "yes" else "no");
            ])
        rows;
      let strict = List.assoc Mode.Strict rows in
      let none = List.assoc Mode.None_ rows in
      Table.add_row t
        [
          drive;
          "ratio";
          Table.cell_ratio (strict.Bonnie.mbps /. none.Bonnie.mbps);
          "";
          "";
        ];
      Table.add_separator t)
    drives;
  {
    Exp.id = "bonnie";
    title = "Bonnie++ sequential I/O: strict IOMMU vs none on SATA (Section 4)";
    body = Table.render t;
    notes =
      [
        "per-request (un)map costs (~7K cycles) vanish against millions of \
         cycles of disk service time: the ratio is 1.00x, as the paper reports";
      ];
  }

let plan ?(quick = false) ?(seed = 42) () =
  let requests = if quick then 300 else 2_000 in
  let bseed = Seeds.bonnie ~seed in
  Exp.plan_of_list
    (List.concat_map
       (fun (drive, bw) ->
         List.map
           (fun mode () ->
             ( (drive, mode),
               Bonnie.run ~requests ~seed:bseed ~mode ~disk_bandwidth_mbps:bw ()
             ))
           modes)
       drives)
    ~reduce
