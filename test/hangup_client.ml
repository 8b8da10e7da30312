(* A peer that hangs up with responses still due.

     hangup_client PATH [CONNS] [TRANSLATES]

   For each of CONNS connections (default 4) to the unix socket PATH:
   send a hello and TRANSLATES (default 2000) translate requests in one
   burst, then close without reading a byte. The server's writes of
   the responses then meet a closed peer (EPIPE); a server that does
   not ignore SIGPIPE dies of the signal instead. Exits 0 once every
   burst is sent. *)

module Wire = Rio_serve_net.Wire

let burst ~path ~translates =
  let b =
    Bytes.create (Wire.hello_bytes + (translates * Wire.max_request_bytes ~sg_limit:1))
  in
  let len = ref (Wire.encode_hello b ~pos:0 ~bdf:0x1ff ~flags:0) in
  for i = 1 to translates do
    len :=
      Wire.encode_translate b ~pos:!len ~tenant:7 ~req_id:i ~iova:(i * 4096)
        ~write:false
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let off = ref 0 in
      while !off < !len do
        off := !off + Unix.write fd b !off (!len - !off)
      done)

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: hangup_client PATH [CONNS] [TRANSLATES]";
    exit 2
  end;
  let conns = arg 2 4 and translates = arg 3 2000 in
  for _ = 1 to conns do
    burst ~path:Sys.argv.(1) ~translates
  done
