type op =
  | Map of { ring : int; addr : int; bytes : int }
  | Unmap of { addr : int }
  | Access of { addr : int; offset : int; write : bool; ok : bool }

type entry = { seq : int; cycles : int; op : op }

type t = { mutable entries : entry list (* reversed *); mutable next_seq : int }

let create () = { entries = []; next_seq = 0 }

let record t ~cycles op =
  t.entries <- { seq = t.next_seq; cycles; op } :: t.entries;
  t.next_seq <- t.next_seq + 1

let record_map t ~cycles ~ring ~addr ~bytes = record t ~cycles (Map { ring; addr; bytes })
let record_unmap t ~cycles ~addr = record t ~cycles (Unmap { addr })

let record_access t ~cycles ~addr ~offset ~write ~ok =
  record t ~cycles (Access { addr; offset; write; ok })

let length t = t.next_seq
let entries t = List.rev t.entries
let iter t f = List.iter f (entries t)

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "seq,cycles,op,addr,arg1,arg2\n";
  iter t (fun e ->
      let row =
        match e.op with
        | Map { ring; addr; bytes } ->
            Printf.sprintf "%d,%d,map,%d,%d,%d" e.seq e.cycles addr ring bytes
        | Unmap { addr } -> Printf.sprintf "%d,%d,unmap,%d,0,0" e.seq e.cycles addr
        | Access { addr; offset; write; ok } ->
            Printf.sprintf "%d,%d,%s,%d,%d,%d" e.seq e.cycles
              (if write then "write" else "read")
              addr offset
              (if ok then 1 else 0)
      in
      Buffer.add_string buf row;
      Buffer.add_char buf '\n');
  Buffer.contents buf

let of_csv text =
  let t = create () in
  let lines = String.split_on_char '\n' text in
  let parse_line i line =
    match String.split_on_char ',' line with
    | [ seq; cycles; kind; addr; arg1; arg2 ] -> (
        try
          let seq = int_of_string seq in
          let cycles = int_of_string cycles in
          let addr = int_of_string addr in
          let arg1 = int_of_string arg1 in
          let arg2 = int_of_string arg2 in
          let op =
            match kind with
            | "map" -> Map { ring = arg1; addr; bytes = arg2 }
            | "unmap" -> Unmap { addr }
            | "read" -> Access { addr; offset = arg1; write = false; ok = arg2 = 1 }
            | "write" -> Access { addr; offset = arg1; write = true; ok = arg2 = 1 }
            | other -> failwith ("unknown op " ^ other)
          in
          t.entries <- { seq; cycles; op } :: t.entries;
          t.next_seq <- max t.next_seq (seq + 1);
          Ok ()
        with Failure msg -> Error (Printf.sprintf "line %d: %s" i msg))
    | _ -> Error (Printf.sprintf "line %d: expected 6 fields" i)
  in
  let rec go i = function
    | [] -> Ok t
    | "" :: rest -> go (i + 1) rest
    | line :: rest -> (
        match parse_line i line with Ok () -> go (i + 1) rest | Error e -> Error e)
  in
  match lines with
  | header :: rest when header = "seq,cycles,op,addr,arg1,arg2" -> go 2 rest
  | _ -> Error "line 1: bad header"
