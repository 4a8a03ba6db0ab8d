(** Flat struct-of-arrays binary min-heap keyed by float priority — the event
    queue of the discrete-event simulator.

    Ties are broken by insertion order (FIFO), which makes simulations
    deterministic.  Priorities are kept in an unboxed [float array] and
    payloads in a preallocated ['a array] padded with a caller-supplied
    [dummy], so [push]/[pop_exn] allocate nothing once the arrays have grown
    to the workload's high-water mark (the slot pool is deliberately not
    shrunk — it {e is} the event pool).  Popped payload slots are reset to
    [dummy], so the queue never retains values it no longer holds. *)

type 'a t

(** [create ~dummy ()] — [dummy] fills empty payload slots and must be a
    value the caller treats as inert (e.g. an [Ev_none] variant). *)
val create : dummy:'a -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Current slot-pool capacity (for tests/introspection). *)
val capacity : 'a t -> int

(** Priority of the minimum entry, or [infinity] when empty — lets the
    event loop test "next event before horizon?" without an option
    allocation. *)
val min_priority : 'a t -> float

(** @raise Invalid_argument on NaN priority. *)
val push : 'a t -> priority:float -> 'a -> unit

(** Removes and returns the minimum-priority payload (FIFO on ties).
    @raise Invalid_argument when empty — guard with [min_priority]. *)
val pop_exn : 'a t -> 'a
