type t = { bus : int; device : int; func : int }

let make ~bus ~device ~func =
  if bus < 0 || bus > 255 then invalid_arg "Bdf.make: bus";
  if device < 0 || device > 31 then invalid_arg "Bdf.make: device";
  if func < 0 || func > 7 then invalid_arg "Bdf.make: func";
  { bus; device; func }

let to_rid t = (t.bus lsl 8) lor (t.device lsl 3) lor t.func
