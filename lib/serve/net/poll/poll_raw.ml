type t

let ev_in = 1
let ev_out = 2
let ev_err = 4

external create_stub : int -> t = "rio_pollset_create"

external set_stub : t -> int -> Unix.file_descr -> int -> unit
  = "rio_pollset_set"

external clear_stub : t -> int -> unit = "rio_pollset_clear"
external revents_stub : t -> int -> int = "rio_pollset_revents"
external wait_stub : t -> int -> int -> int = "rio_pollset_wait"

let create ~cap = create_stub cap
let set t ~idx ~fd ~events = set_stub t idx fd events
let clear t ~idx = clear_stub t idx
let revents t ~idx = revents_stub t idx
let wait t ~n ~timeout_ms = wait_stub t n timeout_ms
