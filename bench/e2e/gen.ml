(* Seeded request streams for the socket workloads, shared by the live
   client and the in-process replay so both send byte-identical
   traffic for one (workload, seed).

   A [conn] is one client connection's view of its tenant: the pages
   it has mapped (iova -> phys, as the server answered), the batch in
   flight and what each of its responses must say. The stream depends
   on the server only through the iovas that map responses return, so
   a correct server yields the same stream every time. *)

module Wire = Rio_serve_net.Wire

type kind =
  | Translate  (** translate over [pages] pages mapped at setup *)
  | Ring
      (** the ring discipline: each batch maps a quarter of new pages,
          translates half over live pages and unmaps the oldest
          quarter, FIFO, over [pages] live pages *)

type spec = { kind : kind; batch : int; pages : int; requests : int }

(* How many of each op a [Ring] batch carries. *)
let ring_maps spec = spec.batch / 4
let ring_translates spec = spec.batch - (2 * ring_maps spec)

(* Pages a connection's setup maps per round trip, within the server's
   128-request window. *)
let setup_chunk = 64

type conn = {
  spec : spec;
  tenant : int;
  mutable rng : int;
  (* what the client believes is mapped; [Ring] keeps a FIFO of
     [pages] slots starting at [head] *)
  iova : int array;
  phys : int array;
  mutable mapped : int;
  mutable head : int;
  mutable phys_next : int;
  (* the batch in flight, indexed by req_id - base *)
  mutable next_id : int;
  mutable base : int;
  mutable n : int;
  exp_op : int array;
  exp_val : int array;  (* translate: expected phys; map: iova answered *)
  exp_slot : int array;  (* map: page slot its iova fills *)
  seen : bool array;
  mutable answered : int;  (* responses to the current batch *)
  mutable sent : int;  (* steady requests sent *)
  (* correctness *)
  mutable bad_status : int;
  mutable wrong : int;  (* wrong phys, op echo or req_id *)
}

(* splitmix-style mixer on OCaml's 63-bit ints: allocation-free, and
   the same stream on every OCaml version. *)
let next_rand c =
  c.rng <- c.rng + 0x1E3779B97F4A7C15;
  let z = c.rng in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

let create spec ~seed ~idx ~tenant =
  let width = max spec.batch setup_chunk in
  let c =
    {
      spec;
      tenant;
      rng = (seed * 0x2545F4914F6CDD1D) + (idx * 0x9E3779B1) + 1;
      iova = Array.make spec.pages 0;
      phys = Array.make spec.pages 0;
      mapped = 0;
      head = 0;
      phys_next = (idx + 1) lsl 36;
      next_id = 1;
      base = 1;
      n = 0;
      exp_op = Array.make width 0;
      exp_val = Array.make width 0;
      exp_slot = Array.make width 0;
      seen = Array.make width false;
      answered = 0;
      sent = 0;
      bad_status = 0;
      wrong = 0;
    }
  in
  ignore (next_rand c : int);
  c

(* A fresh page-aligned frame: a seeded stride so distinct pages map
   distinct frames in no particular order. *)
let fresh_phys c =
  c.phys_next <- c.phys_next + ((1 + (next_rand c land 15)) lsl 12);
  c.phys_next

(* Steady requests a connection sends: whole batches. *)
let planned spec = (spec.requests + spec.batch - 1) / spec.batch * spec.batch

let setup_done c = c.mapped >= c.spec.pages
let steady_done c = c.sent >= c.spec.requests
let batch_open c = c.answered < c.n

let start_batch c =
  c.base <- c.next_id;
  c.n <- 0;
  c.answered <- 0

let add c ~op ~value ~slot =
  let j = c.n in
  c.exp_op.(j) <- op;
  c.exp_val.(j) <- value;
  c.exp_slot.(j) <- slot;
  c.seen.(j) <- false;
  c.n <- j + 1;
  c.next_id <- c.next_id + 1

(* The slot's phys can be set now: no request of this batch reads it
   (translates pick slots that stay live, unmaps send the old iova). *)
let put_map c b ~pos ~slot =
  let phys = fresh_phys c in
  c.phys.(slot) <- phys;
  let req_id = c.next_id in
  add c ~op:Wire.op_map ~value:0 ~slot;
  Wire.encode_map b ~pos ~tenant:c.tenant ~req_id ~phys ~bytes:4096

let put_translate c b ~pos ~slot =
  let off = next_rand c land 4095 in
  let req_id = c.next_id in
  add c ~op:Wire.op_translate ~value:(c.phys.(slot) + off) ~slot;
  Wire.encode_translate b ~pos ~tenant:c.tenant ~req_id ~iova:(c.iova.(slot) + off)
    ~write:false

let put_unmap c b ~pos ~slot =
  let req_id = c.next_id in
  add c ~op:Wire.op_unmap ~value:0 ~slot;
  Wire.encode_unmap b ~pos ~tenant:c.tenant ~req_id ~iova:c.iova.(slot)

(* The next setup chunk (maps of not-yet-mapped slots) at [pos];
   returns the end offset. *)
let encode_setup c b ~pos =
  start_batch c;
  let n = min setup_chunk (c.spec.pages - c.mapped) in
  let p = ref pos in
  for k = 0 to n - 1 do
    p := put_map c b ~pos:!p ~slot:(c.mapped + k)
  done;
  !p

(* The next steady batch at [pos]; returns the end offset. A [Ring]
   batch puts its maps first, then translates of pages that stay live
   across this batch, then unmaps of the oldest pages, so no request
   depends on another one of the same batch. *)
let encode_batch c b ~pos =
  start_batch c;
  let s = c.spec in
  let p = ref pos in
  (match s.kind with
  | Translate ->
      for _ = 1 to s.batch do
        p := put_translate c b ~pos:!p ~slot:(next_rand c mod s.pages)
      done
  | Ring ->
      let q = ring_maps s in
      let live = s.pages - q in
      for k = 0 to q - 1 do
        p := put_map c b ~pos:!p ~slot:((c.head + k) mod s.pages)
      done;
      for _ = 1 to ring_translates s do
        let slot = (c.head + q + (next_rand c mod live)) mod s.pages in
        p := put_translate c b ~pos:!p ~slot
      done;
      for k = 0 to q - 1 do
        p := put_unmap c b ~pos:!p ~slot:((c.head + k) mod s.pages)
      done);
  c.sent <- c.sent + s.batch;
  !p

(* Check one response against the batch in flight and absorb what it
   carries. Map results are held back from the page table until the
   batch is done (a [Ring] map fills a slot an unmap of the same batch
   still names). *)
let check c (r : Wire.resp) =
  let j = r.Wire.r_req_id - c.base in
  if j < 0 || j >= c.n || c.seen.(j) || r.Wire.r_op <> c.exp_op.(j) then
    c.wrong <- c.wrong + 1
  else begin
    c.seen.(j) <- true;
    c.answered <- c.answered + 1;
    if r.Wire.status <> Wire.st_ok then c.bad_status <- c.bad_status + 1
    else if r.Wire.r_op = Wire.op_translate then begin
      if r.Wire.r_phys <> c.exp_val.(j) then c.wrong <- c.wrong + 1
    end
    else if r.Wire.r_op = Wire.op_map then c.exp_val.(j) <- r.Wire.r_iova
  end

(* The batch is fully answered: commit its maps to the page table. *)
let end_batch c =
  let fresh = ref 0 in
  for j = 0 to c.n - 1 do
    if c.exp_op.(j) = Wire.op_map then begin
      c.iova.(c.exp_slot.(j)) <- c.exp_val.(j);
      incr fresh
    end
  done;
  match c.spec.kind with
  | Translate -> c.mapped <- c.mapped + !fresh
  | Ring ->
      if setup_done c then c.head <- (c.head + ring_maps c.spec) mod c.spec.pages
      else c.mapped <- c.mapped + !fresh
