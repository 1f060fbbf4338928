(** Discrete-event simulation kernel.

    A simulation owns a virtual clock and an event queue.  Events are
    thunks executed at their scheduled time, in (time, insertion) order.
    Everything in the repository — Flash dies, NIC queues, dataplane
    threads, load generators — is driven by this loop. *)

type t

(** Handle for a scheduled event, usable with {!cancel}.  Immediate
    (unboxed) value: events live in an internal arena and are recycled
    when popped; the handle packs the arena slot with a generation
    counter so stale handles are harmless. *)
type event_id

(** Event-queue backend.  Both implement the identical (time, then
    insertion seq) execution order — proven by the equivalence tests —
    so results are byte-identical across backends at the same seed;
    only the datapath differs (binary heap vs hierarchical timing
    wheel). *)
type backend = Heap | Wheel

(** Root seed used by {!create} when none is given — recorded in the
    bench harness's JSON metadata so archived results name the exact
    simulations they ran. *)
val default_seed : int64

(** [create ?seed ?backend ()] — [backend] defaults to the process-wide
    selection (see {!set_default_backend}), itself [Wheel] initially
    (byte-identical to [Heap], ~2.5-3x faster on the dataplane mix). *)
val create : ?seed:int64 -> ?backend:backend -> unit -> t

(** Set the backend used by {!create} when none is passed explicitly.
    Intended for per-run CLI selection ([--backend]); call before any
    simulation is created. *)
val set_default_backend : backend -> unit

(** Current process-wide default (for save/restore around a sweep that
    forces a specific backend). *)
val get_default_backend : unit -> backend

(** [with_default_backend b f] runs [f ()] with [b] as the process-wide
    default and restores the previous default afterwards, also when [f]
    raises. *)
val with_default_backend : backend -> (unit -> 'a) -> 'a

(** Backend this simulation runs on. *)
val backend : t -> backend

(** Current virtual time. *)
val now : t -> Time.t

(** Root PRNG stream for this simulation; [Prng.split] it per component. *)
val prng : t -> Prng.t

(** [at t time f] schedules [f] at absolute [time] (must be >= now). *)
val at : t -> Time.t -> (unit -> unit) -> event_id

(** [at_daemon t time f] schedules a {e daemon} event: it runs like a
    normal event while other work is pending, but {!run} stops as soon as
    only daemon events remain, so daemons (monitor ticks, probes)
    never keep the simulation alive on their own.  A daemon skipped at the
    end of one [run] stays scheduled and resumes if new work arrives. *)
val at_daemon : t -> Time.t -> (unit -> unit) -> event_id

(** [after t delay f] schedules [f] at [now + delay]. *)
val after : t -> Time.t -> (unit -> unit) -> event_id

(** Cancel a pending event.  Cancelling an already-fired or already-
    cancelled event is a no-op (the stale generation in the handle makes
    this safe even after the arena slot is recycled).  Cancellation
    immediately drops the event's action closure (so payloads captured
    by a cancelled timer — e.g. a retry deadline whose request completed
    — are collectable before the queue entry is popped); the entry
    itself is skipped lazily when its time comes. *)
val cancel : t -> event_id -> unit

(** Whether the event is no longer going to run (observability for
    tests): true for cancelled events and for events that already
    retired — fired, or popped after cancellation. *)
val cancelled : t -> event_id -> bool

(** Run until the event queue drains or [until] (inclusive) is reached.
    Returns the number of events executed by this call.  The loop itself
    allocates nothing per event: the queue hands back the arena slot and
    the time as immediate ints, so the only allocation is whatever the
    actions do. *)
val run : ?until:Time.t -> t -> int

(** Total number of events executed since [create]. *)
val events_executed : t -> int

(** Number of events currently pending. *)
val pending : t -> int

(** Pending events excluding daemons and cancelled events — what
    actually keeps {!run} going.  Use this when polling for outstanding
    work (daemons never drain, and a pile of cancelled retry timers is
    dead weight, not work). *)
val live_pending : t -> int

(** Run [f now] every [every] until [until]. *)
val every : t -> every:Time.t -> until:Time.t -> (Time.t -> unit) -> unit

(** Periodic daemon tick (see {!at_daemon}): runs [f now] every [every]
    for as long as non-daemon work remains, without ever keeping the
    simulation alive by itself.  At most one long-lived periodic daemon
    per simulation is recommended (two daemons would keep each other
    alive across one extra tick after the workload drains). *)
val every_daemon : t -> every:Time.t -> (Time.t -> unit) -> unit
