(* HdrHistogram-style log-linear buckets over a flat int array.

   Geometry: values in [0, 2 * 2^sub_bits) are exact (unit buckets
   indexed by value); each later power-of-two octave [2^e, 2^(e+1)) is
   split into 2^sub_bits linear sub-buckets of width 2^(e - sub_bits).
   With e the position of the value's highest set bit and
   shift = e - sub_bits, the index is

     index = shift * 2^sub_bits + (v lsr shift)

   which is continuous across octave boundaries and monotone in v, so
   a cumulative scan recovers quantiles. A bucket's width is at most
   2^-sub_bits of its low edge: the advertised relative error bound. *)

type t = {
  sub_bits : int;
  sub_count : int;  (* 1 lsl sub_bits *)
  max_value : int;
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable max_seen : int;
  (* interval-window checkpoint: a copy of [counts]/[total]/[sum] taken
     at the last [interval_into], allocated lazily on the first one so
     histograms that never report windows stay half the size. The
     window max cannot be recovered by subtraction, so [record] tracks
     it directly. *)
  mutable prev_counts : int array;  (* [||] until first checkpoint *)
  mutable prev_total : int;
  mutable prev_sum : int;
  mutable win_max : int;
}

(* Highest set bit of each byte value (entry 0 is unused). *)
let msb_byte =
  String.init 256 (fun b ->
      let rec go e b = if b > 1 then go (e + 1) (b lsr 1) else e in
      Char.chr (go 0 b))

(* Position of the highest set bit of v >= 1: three halving steps
   narrow v to its top byte (so the unchecked load is in bounds), then
   one table load. The steps compute 0/1 ints rather than branch:
   recorded latencies vary, so data-dependent branches mispredict. *)
let msb v =
  let s = Bool.to_int (v lsr 32 <> 0) lsl 5 in
  let v = v lsr s and e = s in
  let s = Bool.to_int (v lsr 16 <> 0) lsl 4 in
  let v = v lsr s and e = e + s in
  let s = Bool.to_int (v lsr 8 <> 0) lsl 3 in
  let v = v lsr s and e = e + s in
  e + Char.code (String.unsafe_get msb_byte v)

let bucket_of t v =
  let v = if v < 0 then 0 else if v > t.max_value then t.max_value else v in
  if v < 2 * t.sub_count then v
  else
    let shift = msb v - t.sub_bits in
    (shift * t.sub_count) + (v lsr shift)

(* highest value mapping to bucket [i] *)
let bucket_hi t i =
  if i < t.sub_count then i
  else
    let shift = (i / t.sub_count) - 1 in
    let s = i - (shift * t.sub_count) in
    (((s + 1) lsl shift) - 1 : int)

let create ?(sub_bits = 5) ?(max_value = 1 lsl 40) () =
  if sub_bits < 1 || sub_bits > 15 then
    invalid_arg "Histogram.create: sub_bits must be in [1, 15]";
  if max_value < 2 then invalid_arg "Histogram.create: max_value";
  let probe =
    {
      sub_bits;
      sub_count = 1 lsl sub_bits;
      max_value;
      counts = [||];
      total = 0;
      sum = 0;
      max_seen = 0;
      prev_counts = [||];
      prev_total = 0;
      prev_sum = 0;
      win_max = 0;
    }
  in
  { probe with counts = Array.make (bucket_of probe max_value + 1) 0 }

let record t v =
  let v = if v < 0 then 0 else if v > t.max_value then t.max_value else v in
  let i = bucket_of t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v > t.max_seen then t.max_seen <- v;
  if v > t.win_max then t.win_max <- v

let count t = t.total
let max_recorded t = t.max_seen

let mean t =
  if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total

let quantile t q =
  if not (q > 0. && q <= 1.) then
    invalid_arg "Histogram.quantile: q must be in (0, 1]";
  if t.total = 0 then 0
  else begin
    (* nearest-rank: the ceil(q * n)-th smallest recording *)
    let target =
      let r = int_of_float (Float.ceil (q *. float_of_int t.total)) in
      if r < 1 then 1 else if r > t.total then t.total else r
    in
    let cum = ref 0 in
    let i = ref 0 in
    while !cum < target do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    let hi = bucket_hi t (!i - 1) in
    if hi > t.max_seen then t.max_seen else hi
  end

let rel_error_bound t = 1. /. float_of_int t.sub_count

let same_geometry a b =
  a.sub_bits = b.sub_bits && a.max_value = b.max_value

let merge_into ~dst src =
  if not (same_geometry dst src) then
    invalid_arg "Histogram.merge_into: geometry mismatch";
  for i = 0 to Array.length src.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.total <- dst.total + src.total;
  dst.sum <- dst.sum + src.sum;
  if src.max_seen > dst.max_seen then dst.max_seen <- src.max_seen

let equal a b =
  same_geometry a b && a.total = b.total && a.sum = b.sum
  && a.max_seen = b.max_seen && a.counts = b.counts

let interval_into t ~into =
  if not (same_geometry t into) then
    invalid_arg "Histogram.interval_into: geometry mismatch";
  if Array.length t.prev_counts = 0 then
    t.prev_counts <- Array.make (Array.length t.counts) 0;
  let added = ref 0 in
  for i = 0 to Array.length t.counts - 1 do
    let d = t.counts.(i) - t.prev_counts.(i) in
    into.counts.(i) <- into.counts.(i) + d;
    added := !added + d;
    t.prev_counts.(i) <- t.counts.(i)
  done;
  into.total <- into.total + (t.total - t.prev_total);
  into.sum <- into.sum + (t.sum - t.prev_sum);
  if !added > 0 && t.win_max > into.max_seen then into.max_seen <- t.win_max;
  t.prev_total <- t.total;
  t.prev_sum <- t.sum;
  t.win_max <- 0

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.sum <- 0;
  t.max_seen <- 0;
  if Array.length t.prev_counts > 0 then
    Array.fill t.prev_counts 0 (Array.length t.prev_counts) 0;
  t.prev_total <- 0;
  t.prev_sum <- 0;
  t.win_max <- 0
