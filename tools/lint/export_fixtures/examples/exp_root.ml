(* Export-rule fixture root: reaches [Exp_api.via_data] only through
   the plan list it reads. *)

module Exp_api = Lint_export_fixtures.Exp_api

let () =
  List.iter
    (fun (name, f) -> Printf.printf "%s %d\n" name (f (Exp_api.from_root 1)))
    Exp_api.plans
