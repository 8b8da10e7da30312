type t = { rid : int; rings : Rring.t array }

let create ~rid ~ring_sizes ~frames ~coherency =
  if rid < 0 || rid > 0xFFFF then invalid_arg "Rdevice.create: rid";
  if ring_sizes = [] then invalid_arg "Rdevice.create: no rings";
  if List.length ring_sizes > 1 lsl Riova.ring_bits then
    invalid_arg "Rdevice.create: too many rings";
  {
    rid;
    rings =
      Array.of_list
        (List.map (fun size -> Rring.create ~size ~frames ~coherency) ring_sizes);
  }

let rid t = t.rid
let ring_count t = Array.length t.rings

let ring t i =
  if i < 0 || i >= Array.length t.rings then invalid_arg "Rdevice.ring: rid range";
  t.rings.(i)
