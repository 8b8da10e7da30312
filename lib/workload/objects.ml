(* Pure quantile functions: no state, no ambient randomness — the
   caller owns the uniform stream. Keeping them closed-form is what
   makes the load generator's schedule a pure function of (seed,
   shard, tenant, flow).

   Each sampler takes its draw as an int and converts it here, so the
   uniform float stays an unboxed local instead of a boxed argument. *)

(* a 53-bit draw scaled to [0, 1) *)
let[@inline] u01 bits = float_of_int bits *. (1. /. 9007199254740992.)

(* Bounded Pareto inverse CDF on [lo, hi] with shape [alpha]:
   F^-1(u) = lo / (1 - u (1 - (lo/hi)^alpha))^(1/alpha), with the HTTP
   profile's constants. (lo/hi)^alpha = 2^-14.4 is written out as the
   double [(256. /. 1048576.) ** 1.2] evaluates to: computing it at
   module initialisation would page libm's pow tables into every
   process linking this library, the socket server included. *)
let http_lo = 256
let http_hi = 1_048_576
let http_ratio = 0x1.8406003b2ae5fp-15
let http_inv_alpha = 1. /. 1.2

let http_bytes bits =
  let x =
    float_of_int http_lo
    /. ((1. -. (u01 bits *. (1. -. http_ratio))) ** http_inv_alpha)
  in
  let b = int_of_float x in
  if b < http_lo then http_lo else if b > http_hi then http_hi else b

let kv_bytes bits =
  let u = u01 bits in
  if u < 0.9 then
    (* key + value, uniform over a narrow band around the 1 KB value *)
    64 + int_of_float (u /. 0.9 *. 1024.)
  else
    (* multiget: a handful of values in one response *)
    1_024 + int_of_float ((u -. 0.9) /. 0.1 *. 15_360.)

let requests_per_connection ~mean bits =
  if mean <= 1 then 1
  else
    (* geometric with success probability 1/mean, via inversion *)
    let p = 1. /. float_of_int mean in
    let u = u01 bits in
    let u = if u >= 1. then 0.999999 else u in
    let n = 1 + int_of_float (Float.log (1. -. u) /. Float.log (1. -. p)) in
    if n < 1 then 1 else n

let think_cycles ~mean bits =
  if mean <= 0 then 0
  else
    let u = u01 bits in
    let u = if u >= 1. then 0.999999 else u in
    let x = -.float_of_int mean *. Float.log (1. -. u) in
    if x <= 0. then 0 else int_of_float x
