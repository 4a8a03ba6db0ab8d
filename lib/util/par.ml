let fork_join ~domains f =
  if domains <= 1 then f 0
  else begin
    (* Index 0 runs on the calling domain so [domains = 1] never spawns and a
       d-domain round keeps exactly d domains live. *)
    let spawned = Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> f (i + 1))) in
    let self = try Ok (f 0) with e -> Error e in
    (* Always join every spawned domain — even when the caller's own slice
       failed — so no domain outlives the round. *)
    let joined = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
    let reraise = function Error e -> raise e | Ok () -> () in
    reraise self;
    Array.iter reraise joined
  end

module Mailbox = struct
  type 'a t = { mutable items : 'a list }

  let create () = { items = [] }
  let post t x = t.items <- x :: t.items

  let drain t =
    let xs = List.rev t.items in
    t.items <- [];
    xs
end
