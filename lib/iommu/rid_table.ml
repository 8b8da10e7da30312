(* Open addressing over [keys] (-1 = empty) with values in a parallel
   array; load factor stays <= 1/2, so probe runs are short. Same probe
   and deletion discipline as the IOTLB's table (Rio_iotlb.Iotlb), but
   hashed on the high bits of the product: the low 8 bits of an
   attached rid are its device/function, zero for every bus-numbered
   tenant. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a option array;
  mutable mask : int;
  mutable shift : int;  (* 63 - log2 (Array.length keys) *)
  mutable len : int;
}

let alloc t ~bits =
  let size = 1 lsl bits in
  t.keys <- Array.make size (-1);
  t.vals <- Array.make size None;
  t.mask <- size - 1;
  t.shift <- 63 - bits

let create () =
  let t = { keys = [||]; vals = [||]; mask = 0; shift = 0; len = 0 } in
  alloc t ~bits:3;
  t

let home t key = (key * 0x2545F4914F6CDD1D) lsr t.shift

(* The key's slot, or the empty slot where it would go. *)
let slot t key =
  let i = ref (home t key) in
  while
    let k = t.keys.(!i) in
    k >= 0 && k <> key
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find_exn t key =
  match t.vals.(slot t key) with Some v -> v | None -> raise Not_found

let mem t key = t.keys.(slot t key) >= 0
let length t = t.len

let rec replace t key v =
  if key < 0 then invalid_arg "Rid_table.replace: negative key";
  let i = slot t key in
  if t.keys.(i) >= 0 then t.vals.(i) <- Some v
  else if 2 * (t.len + 1) > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    alloc t ~bits:(63 - t.shift + 1);
    t.len <- 0;
    Array.iteri
      (fun j k -> match vals.(j) with Some w -> replace t k w | None -> ())
      keys;
    replace t key v
  end
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- Some v;
    t.len <- t.len + 1
  end

(* Backward-shift deletion: walk the cluster after the hole and move
   back every entry whose home does not lie cyclically in (hole, j],
   so lookups never need tombstones. *)
let remove t key =
  let hole = ref (slot t key) in
  if t.keys.(!hole) >= 0 then begin
    t.len <- t.len - 1;
    let j = ref !hole in
    let scanning = ref true in
    while !scanning do
      j := (!j + 1) land t.mask;
      let k = t.keys.(!j) in
      if k < 0 then scanning := false
      else begin
        let h = home t k in
        let stays =
          if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
        in
        if not stays then begin
          t.keys.(!hole) <- k;
          t.vals.(!hole) <- t.vals.(!j);
          hole := !j
        end
      end
    done;
    t.keys.(!hole) <- -1;
    t.vals.(!hole) <- None
  end
