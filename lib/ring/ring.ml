type 'a t = {
  slots : 'a option array;
  mutable head : int;
  mutable tail : int;
}

let create ~size =
  if size <= 1 then invalid_arg "Ring.create: size must exceed 1";
  { slots = Array.make size None; head = 0; tail = 0 }

let size t = Array.length t.slots

let length t =
  let n = (t.tail - t.head + size t) mod size t in
  n

let is_empty t = t.head = t.tail
let is_full t = (t.tail + 1) mod size t = t.head

let post t x =
  if is_full t then Error `Full
  else begin
    let slot = t.tail in
    t.slots.(slot) <- Some x;
    t.tail <- (t.tail + 1) mod size t;
    Ok slot
  end

let consume t =
  if is_empty t then None
  else begin
    let x = t.slots.(t.head) in
    t.slots.(t.head) <- None;
    t.head <- (t.head + 1) mod size t;
    x
  end

let check_invariants t =
  if t.head < 0 || t.head >= size t then Error "head out of range"
  else if t.tail < 0 || t.tail >= size t then Error "tail out of range"
  else begin
    (* every slot in [head, tail) is occupied; the rest are empty *)
    let ok = ref (Ok ()) in
    for i = 0 to size t - 1 do
      let in_window =
        if t.head <= t.tail then i >= t.head && i < t.tail
        else i >= t.head || i < t.tail
      in
      match (t.slots.(i), in_window) with
      | None, true -> ok := Error (Printf.sprintf "hole in window at %d" i)
      | Some _, false -> ok := Error (Printf.sprintf "stale slot outside window at %d" i)
      | _ -> ()
    done;
    !ok
  end
