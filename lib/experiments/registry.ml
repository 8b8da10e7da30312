type planner = ?quick:bool -> ?seed:int -> unit -> Exp.plan

let all : (string * planner) list =
  [
    ("table1", Table1.plan);
    ("figure7", Figure7.plan);
    ("figure8", Figure8.plan);
    ("figure12", Figure12.plan);
    ("table2", Table2.plan);
    ("table3", Table3.plan);
    ("iotlb_miss", Iotlb_miss.plan);
    ("prefetchers", Prefetchers.plan);
    ("bonnie", Bonnie_sata.plan);
    ("ablations", Ablations.plan);
    ("interference", Interference.plan);
  ]

let find id = List.assoc_opt id all
let ids = List.map fst all

let unknown_id_message id =
  Printf.sprintf "unknown experiment: %s\nvalid experiments:\n%s" id
    (String.concat "\n" (List.map (fun i -> "  " ^ i) ids))
