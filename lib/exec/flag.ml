type t = bool Atomic.t

let create () = Atomic.make false
let set t = Atomic.set t true
let get = Atomic.get
