(** The global token bucket shared by all dataplane threads (paper
    §3.2.2/§4.1).

    LC tenants donate spare tokens here; BE tenants on any thread may
    claim them.  Threads access it with atomic read-modify-write
    operations in the paper; in this single-threaded simulation they are
    plain read-modify-writes of the {!level} cell.  The bucket resets once every thread has completed at least one
    scheduling round since the last reset — the last thread to mark
    performs the reset — bounding the burst BE tenants can accumulate. *)

type t

val create : n_threads:int -> t

(** The bucket's level as an all-float cell.  {!Scheduler}'s round is
    the only writer besides {!mark_round}'s reset: it donates with an
    atomic-increment [+.] and claims with a decrement bounded below by
    zero, in place, so no float is boxed across the module boundary. *)
type level = { mutable tokens : float }

val cell : t -> level

val level : t -> float

(** Mark that [thread_id] finished a scheduling round.  When all active
    threads have marked since the last reset, the bucket is zeroed.
    Returns [true] when this call performed the reset.  A mark from a
    thread that is not active (one retired by {!set_active_threads} while
    its last cycle was still queued) is a no-op returning [false].
    Allocates nothing. *)
val mark_round : t -> thread_id:int -> bool

(** Total resets so far (observability). *)
val resets : t -> int

(** Replace the set of thread ids whose marks gate the periodic reset —
    used when the control plane grows or shrinks the dataplane (paper
    §4.3).  All pending marks are discarded.  Raises [Invalid_argument] on
    an empty list or a negative id. *)
val set_active_threads : t -> int list -> unit
