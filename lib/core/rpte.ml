type dir = To_memory | From_memory | Bidirectional

let size_bits = 30
let invalid = 0
let dir_code = function To_memory -> 1 | From_memory -> 2 | Bidirectional -> 3

let word1 ~size ~dir =
  if size <= 0 || size lsr size_bits <> 0 then invalid_arg "Rpte.word1: size";
  (size lsl 3) lor (dir_code dir lsl 1) lor 1

let valid w = w land 1 <> 0
let size w = w lsr 3

(* valid plus the direction bit the access needs *)
let permits w ~write =
  let need = if write then 0b011 else 0b101 in
  w land need = need
