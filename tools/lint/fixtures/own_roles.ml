(* Ownership fixture: [shared_cursor] is reachable from both the
   io-domain root and the executor root; [guarded] goes through a
   sanctioned constructor; [spawn_leak] hands a closure capturing the
   shared location to [Domain.spawn], the spawner the socket loop uses
   for its executor domains. *)

let shared_cursor = ref 0
let guarded = Atomic.make 0

let io_entry () =
  shared_cursor := !shared_cursor + 1;
  Atomic.incr guarded

let exec_entry () = shared_cursor := !shared_cursor + 2
let spawn_leak () = Domain.join (Domain.spawn (fun () -> shared_cursor := 0))
