type t = { mutable now : int }

let create () = { now = 0 }
let now t = t.now

let[@inline] charge t c =
  assert (c >= 0);
  t.now <- t.now + c

let since t start = t.now - start

let measure t f =
  let start = t.now in
  let result = f () in
  (result, t.now - start)
