module Domain = struct
  type t = { id : int; table : Rio_pagetable.Arena.t }

  let make ~id ~table = { id; table }
end

type t = { entries : Domain.t Rid_table.t }

let create () = { entries = Rid_table.create () }
let attach t bdf domain = Rid_table.replace t.entries (Bdf.to_rid bdf) domain
let detach t bdf = Rid_table.remove t.entries (Bdf.to_rid bdf)

let lookup t ~rid =
  match Rid_table.find_exn t.entries rid with
  | d -> Some d
  | exception Not_found -> None

let lookup_exn t ~rid = Rid_table.find_exn t.entries rid
let attached t = Rid_table.length t.entries
