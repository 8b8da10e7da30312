type t = int

let offset_bits = 30
let rentry_bits = 18
let ring_bits = 14

let pack ~offset ~rentry ~rid =
  if offset < 0 || offset lsr offset_bits <> 0 then invalid_arg "Riova.pack: offset";
  if rentry < 0 || rentry lsr rentry_bits <> 0 then invalid_arg "Riova.pack: rentry";
  if rid < 0 || rid lsr ring_bits <> 0 then invalid_arg "Riova.pack: rid";
  (rid lsl (offset_bits + rentry_bits)) lor (rentry lsl offset_bits) lor offset

let rid iova = iova asr (offset_bits + rentry_bits)
let rentry iova = (iova lsr offset_bits) land ((1 lsl rentry_bits) - 1)
let offset iova = iova land ((1 lsl offset_bits) - 1)
