(* In-memory span recorder for the traced benchmark run.

   Spans wrap calls into the library's public functions from the
   benchmark's own code: a span records its name, wall-clock start and end,
   the span that was open when it started (its parent) and the op or
   request id it belongs to.  Nothing is written until [chrome_json] is
   asked for at exit.  With recording off, [span name f] is just [f ()]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  op : int;  (** op or request id; -1 during set-up *)
  start : float;
  stop : float;
}

let recording = ref false
let recorded : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

let now = Unix.gettimeofday

(* Forgets earlier spans and starts recording. *)
let start () =
  recorded := [];
  open_stack := [];
  next_id := 0;
  current_op := -1;
  recording := true

let stop () =
  recording := false;
  current_op := -1

let set_op op = current_op := op

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    open_stack := id :: !open_stack;
    let start = now () in
    let finish () =
      let stop = now () in
      open_stack := (match !open_stack with _ :: rest -> rest | [] -> []);
      recorded := { id; name; parent; op; start; stop } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Spans in start order. *)
let spans () = List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) !recorded

let dur s = s.stop -. s.start

(* Self time: the span's duration minus the part its direct children cover
   (children never overlap: one domain, properly nested). *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)))
    spans

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let chrome_json ~workload spans =
  let b = Buffer.create (64 * (List.length spans + 4)) in
  let t0 = match spans with s :: _ -> s.start | [] -> 0. in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Printf.bprintf b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"%s\"}}"
    workload;
  List.iter
    (fun s ->
      Printf.bprintf b
        ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
        s.name (layer s.name)
        ((s.start -. t0) *. 1e6)
        (dur s *. 1e6) s.id s.parent s.op)
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
