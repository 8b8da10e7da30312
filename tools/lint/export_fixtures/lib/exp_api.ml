(* Export-rule fixture: one exported val of each kind the rule tells
   apart (see exp_api.mli). *)

let from_root n = n + 1
let via_data n = n * 2
let plans = [ ("double", via_data) ]
let test_only n = n - 1
let dead n = n * n
