(** Minimal fork-join parallelism helpers for the epoch-barrier simulator.

    The multi-region simulator advances every region to the same [k * epoch]
    time barrier before any region passes it, on as many domains as the
    process has CPUs for.  That protocol maps onto domains as a sequence of
    fork-join rounds: one {!fork_join} per epoch is both the executor and
    the memory barrier — everything a worker domain wrote before returning
    happens-before everything the caller (and the next round's workers) read
    after the join.  No locks are needed as long as data is partitioned per
    worker within a round; cross-partition traffic goes through a {!Mailbox}
    written during the round and drained after the join. *)

(** [fork_join ~domains f] runs [f 0 .. f (domains - 1)] concurrently and
    returns when all have finished.  [f 0] runs on the calling domain (so
    [domains <= 1] spawns nothing), the rest on fresh [Domain.spawn]s that
    are all joined before the call returns — including when some [f] raised;
    the first exception (caller's slice first, then ascending index) is
    re-raised after every domain has been joined. *)
val fork_join : domains:int -> (int -> unit) -> unit

(** Single-producer mailbox for cross-partition messages inside a fork-join
    round.  The contract is ownership-by-phase, not locking: during a round
    exactly one domain posts into a given mailbox, and it is drained only
    after the join (or before the next fork) by whoever owns the barrier
    phase — the fork/join edges provide the synchronization. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t

  (** [post t x] appends [x].  Owner domain only (see above). *)
  val post : 'a t -> 'a -> unit

  (** [drain t] returns everything posted since the last drain, oldest first,
      and empties the mailbox.  Barrier phase only. *)
  val drain : 'a t -> 'a list
end
