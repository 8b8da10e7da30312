(* The one service configuration every socket workload runs, and the
   in-process twin of it that the traced replay builds. The flags are
   exactly those riommu-serve --listen is started with; the replay
   mirrors the defaults that flag set leaves in place (256-entry shared
   IOTLB per shard, magazine caches on, 16-segment sg limit). *)

open Rio_serve
open Rio_serve_net

let shards = 2
let tenants = 4
let batch = 64
let window = 128
let sg_limit = 16
let conns = 2

let server_args ~sock ~stats =
  [
    "--listen"; "unix:" ^ sock;
    "--shards"; string_of_int shards;
    "--tenants"; string_of_int tenants;
    "--batch"; string_of_int batch;
    "--window"; string_of_int window;
    "--domains"; "1";
    "--interval"; "0";
    "--stats"; stats;
  ]

let make_shards () =
  Array.init shards (fun id ->
      Shard.create ~id ~tenants ~iotlb_capacity:256
        ~iotlb_policy:Rio_domain.Shared_iotlb.Shared ~rcache:true ())

let make_dispatch shards = Dispatch.create ~shards ~batch ~sg_limit ()
let bdf ~idx = 0x100 + idx

(* Each connection drives its own tenant, chosen so that connection i
   pins to shard i: the two connections never share a shard's IOTLB
   or batch. *)
let tenants_by_conn =
  lazy
    (let place = make_dispatch (make_shards ()) in
     Array.init conns (fun idx ->
         let rec go t =
           if Dispatch.shard_of place ~tenant:t ~bdf:(bdf ~idx) = idx mod shards
           then t
           else go (t + 1)
         in
         go (idx * 16)))

let tenant_of ~idx = (Lazy.force tenants_by_conn).(idx)
