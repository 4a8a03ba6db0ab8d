type 'ev t = {
  mutable now : float;
  mutable dispatched : int;
  mutable horizon : float;  (* [until] bound of the in-progress/last [run] *)
  queue : 'ev Js_util.Pqueue.t;
  telemetry : Js_telemetry.t option;
}

let create ?telemetry ~dummy () =
  {
    now = 0.;
    dispatched = 0;
    horizon = 0.;
    queue = Js_util.Pqueue.create ~dummy ();
    telemetry;
  }

let now t = t.now
let dispatched t = t.dispatched
let pending t = Js_util.Pqueue.length t.queue
let horizon t = t.horizon
let next_event_at t = Js_util.Pqueue.min_priority t.queue

let step_to t ~at =
  if Float.is_nan at then invalid_arg "Engine.step_to: NaN time";
  if at > t.now then t.now <- at;
  (match t.telemetry with
  | Some tel -> Js_telemetry.Clock.set (Js_telemetry.clock tel) t.now
  | None -> ());
  t.dispatched <- t.dispatched + 1

let schedule t ~at ev =
  if Float.is_nan at then invalid_arg "Engine.schedule: NaN time";
  (* Events scheduled "in the past" fire immediately-next: the queue is a
     min-heap, so clamping to [now] keeps time monotone without reordering
     same-time events (insertion order breaks ties). *)
  Js_util.Pqueue.push t.queue ~priority:(Float.max at t.now) ev

let after t ~delay ev = schedule t ~at:(t.now +. Float.max 0. delay) ev

let run t ~until ~dispatch =
  t.horizon <- until;
  let q = t.queue in
  (match t.telemetry with
  | None ->
    (* Hot path: no telemetry sync, no option probing per event. *)
    let continue = ref true in
    while !continue do
      let at = Js_util.Pqueue.min_priority q in
      if at <= until then begin
        let ev = Js_util.Pqueue.pop_exn q in
        if at > t.now then t.now <- at;
        t.dispatched <- t.dispatched + 1;
        dispatch t ev
      end
      else continue := false
    done
  | Some tel ->
    let clock = Js_telemetry.clock tel in
    let continue = ref true in
    while !continue do
      let at = Js_util.Pqueue.min_priority q in
      if at <= until then begin
        let ev = Js_util.Pqueue.pop_exn q in
        if at > t.now then t.now <- at;
        Js_telemetry.Clock.set clock t.now;
        t.dispatched <- t.dispatched + 1;
        dispatch t ev
      end
      else continue := false
    done);
  t.now <- Float.max t.now until;
  match t.telemetry with
  | Some tel -> Js_telemetry.Clock.set (Js_telemetry.clock tel) t.now
  | None -> ()
