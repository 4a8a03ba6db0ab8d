(** Discrete-event simulation core.

    A monotone simulated clock plus a flat event queue
    ({!Js_util.Pqueue}: struct-of-arrays binary min-heap keyed by event
    time, ties broken by insertion order), so a run is a deterministic
    function of the scheduled events and the seeds their handlers consume.

    Events are values of a caller-chosen variant type ['ev] rather than
    closures: scheduling an immediate-carrying variant allocates at most the
    variant block itself (nothing for constant constructors), where a
    closure per event would allocate a closure plus a heap entry.  At fleet
    scale — 100k servers x millions of events — that difference is the
    allocation churn the flat engine exists to avoid.

    When a telemetry sink is attached, its simulated clock is kept in sync
    with the engine clock at every dispatch, so spans and events recorded
    from inside handlers carry simulation timestamps. *)

type 'ev t

(** [create ?telemetry ~dummy ()] — [dummy] is an inert ['ev] used to pad
    empty queue slots; it is never dispatched. *)
val create : ?telemetry:Js_telemetry.t -> dummy:'ev -> unit -> 'ev t

(** Current simulation time in seconds. *)
val now : 'ev t -> float

(** Events dispatched so far. *)
val dispatched : 'ev t -> int

(** Events still queued. *)
val pending : 'ev t -> int

(** The [until] bound of the in-progress (or most recent) {!run} call; [0.]
    before the first run.  Lets a dispatch handler ask how far the current
    drain is allowed to advance — the guard the arrival-batching fast path
    uses to avoid stepping past an epoch barrier. *)
val horizon : 'ev t -> float

(** Timestamp of the earliest queued event, or [infinity] when the queue is
    empty.  O(1). *)
val next_event_at : 'ev t -> float

(** [step_to t ~at] advances the clock to [max (now t) at], syncs the
    attached telemetry clock, and counts one dispatched event — the
    bookkeeping {!run} performs per pop, exposed so a handler that consumes
    a logical event {e inline} (without a queue round-trip) keeps
    [dispatched] and the clock byte-identical to the unbatched schedule.
    @raise Invalid_argument on NaN. *)
val step_to : 'ev t -> at:float -> unit

(** [schedule t ~at ev] queues [ev] at absolute time [at] (clamped to
    [now t]: the clock never goes backwards).  @raise Invalid_argument on
    NaN. *)
val schedule : 'ev t -> at:float -> 'ev -> unit

(** [after t ~delay ev] = [schedule t ~at:(now t +. max 0. delay) ev]. *)
val after : 'ev t -> delay:float -> 'ev -> unit

(** [run t ~until ~dispatch] pops events in (time, insertion) order, calling
    [dispatch t ev] for each with the clock advanced to the event's time,
    until the queue holds nothing at or before [until]; then advances the
    clock to [until].  Handlers may schedule further events, including at the
    current time.  Resumable: successive [run] calls with increasing [until]
    advance the same simulation epoch by epoch. *)
val run : 'ev t -> until:float -> dispatch:('ev t -> 'ev -> unit) -> unit
