(* SplitMix64-style splittable streams (Steele, Lea & Flood, OOPSLA'14).

   Unlike [Rng.split], which derives the child from the parent's
   *mutable* position, a [Splittable_rng.t] is an immutable (state,
   gamma) pair and children are derived purely from the parent plus a
   key. Deriving "a" then "b" from a root therefore yields exactly the
   same two streams as deriving "b" then "a" - which is what lets every
   (experiment, config, trial) cell of a parallel run own an
   independent stream whose draws do not depend on scheduling order. *)

type t = { state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Stafford's mix13 finalizer - same as Rng.mix, kept here so the two
   modules stay independently readable. Inlined so [draw]'s caller
   keeps the 64-bit words unboxed. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Gammas must be odd to generate the full 2^64 period. Inlined: as a
   plain call it would box its argument and its result. *)
let[@inline] mix_gamma z = Int64.logor (mix64 z) 1L

let create ~seed =
  let s = Int64.of_int seed in
  { state = mix64 s; gamma = mix_gamma (Int64.add s golden_gamma) }

(* Hash-combine the parent's identity (state and gamma both count:
   siblings share neither) with the key; the child gets a fresh gamma
   ([child_gamma]) so descendants of different children never fall into
   the same additive orbit. *)
let[@inline] child_state t key =
  let k = mix64 (Int64.add (Int64.of_int key) golden_gamma) in
  mix64 (Int64.logxor t.state (Int64.mul t.gamma k))

let[@inline] child_gamma t h = mix_gamma (Int64.add h t.gamma)

let descend t key =
  let h = child_state t key in
  { state = h; gamma = child_gamma t h }

let fnv_prime = 0x100000001B3L
let fnv_offset = 0xCBF29CE484222325L

let descend_string t s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  descend t (Int64.to_int !h)

let path t keys = List.fold_left descend_string t keys

let seed t =
  (* collapse to a nonnegative OCaml int, suitable for [Rng.create] *)
  Int64.to_int (Int64.shift_right_logical (mix64 t.state) 2)

(* The cursor keeps state and gamma as raw 64-bit words in a 16-byte
   buffer: a mutable [int64] record field would box a fresh value on
   every store, while these unchecked loads and stores compile to plain
   moves. *)
type cursor = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let seek c t =
  set64 c 0 t.state;
  set64 c 8 t.gamma

let cursor t =
  let c = Bytes.create 16 in
  seek c t;
  c

(* [seek c (descend t key)] without building the child record. *)
let seek_descend c t key =
  let h = child_state t key in
  set64 c 0 h;
  set64 c 8 (child_gamma t h)

let[@inline] draw c =
  let state = Int64.add (get64 c 0) (get64 c 8) in
  set64 c 0 state;
  mix64 state
