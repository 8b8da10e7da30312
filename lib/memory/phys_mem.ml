type t = { frames : (int, bytes) Hashtbl.t }

let create () = { frames = Hashtbl.create 1024 }

let frame t pfn =
  match Hashtbl.find_opt t.frames pfn with
  | Some b -> b
  | None ->
      let b = Bytes.make Addr.page_size '\000' in
      Hashtbl.add t.frames pfn b;
      b

(* Apply [f frame_bytes offset_in_frame span_len data_offset] over every
   frame the range [addr, addr+len) touches. *)
let iter_span t addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = Addr.add addr !pos in
    let pfn = Addr.pfn a in
    let off = Addr.page_offset a in
    let span = min (len - !pos) (Addr.page_size - off) in
    f (frame t pfn) off span !pos;
    pos := !pos + span
  done

let write t addr data =
  iter_span t addr (Bytes.length data) (fun fr off span dpos ->
      Bytes.blit data dpos fr off span)

let read t addr len =
  let out = Bytes.make len '\000' in
  iter_span t addr len (fun fr off span dpos -> Bytes.blit fr off out dpos span);
  out
