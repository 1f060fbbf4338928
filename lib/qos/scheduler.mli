(** The QoS scheduling algorithm — a faithful port of the paper's
    Algorithm 1.

    Each dataplane thread owns one scheduler instance over its tenants.
    Per round: LC tenants receive tokens from their SLO rate and submit
    queued requests, allowed to burst into deficit down to NEG_LIMIT
    (default -50 tokens); balances above POS_LIMIT (the grant of the last
    three rounds) donate 90% to the shared {!Global_bucket}.  BE tenants
    then receive a fair share of unallocated throughput in round-robin
    order, may claim from the global bucket, submit only requests they can
    fully pay for, and may not hold tokens while idle (Deficit Round Robin
    inspired).  Finally the thread marks its round on the global bucket,
    whose periodic reset bounds BE bursts.

    One round allocates nothing but the {!submission} record (with its
    boxed [cost]) of each granted request, and, with the flight recorder
    armed, the box of each decision record's computed value (see
    {!Reflex_obs.Flight.record}).  Algorithm 1's token arithmetic lives
    in this module alone: the LC and BE loops read and write the tenants'
    all-float {!Tenant.acct} records, the bucket's {!Global_bucket.level}
    cell and the scheduler's own float cells in place, and call into
    {!Tenant} only with ints and pointers ({!Tenant.pop},
    {!Tenant.next_grant_slot}), so no float crosses a compilation-unit
    boundary (which boxes it under [-opaque]).  Idle
    tenants are still visited every round: their refills and donations
    feed the global bucket in tenant order. *)

type 'a t

(** A request released by the scheduler for submission to the device. *)
type 'a submission = { tenant_id : int; cost : float; payload : 'a }

val create :
  ?neg_limit:float ->
  (* default -50 tokens *)
  ?donate_fraction:float ->
  (* default 0.9 *)
  global:Global_bucket.t ->
  thread_id:int ->
  ?notify_control_plane:(int -> unit) ->
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  (* default [Telemetry.disabled]: the scheduling round then stays
     allocation-free.  When enabled, every throttle/donation/bucket
     decision is logged with its inputs and per-tenant token/backlog/
     grant/debit gauges are registered as [qos/t<ID>/...]. *)
  unit ->
  'a t

val add_tenant : 'a t -> 'a Tenant.t -> unit

(** Remove by id; queued requests are dropped. *)
val remove_tenant : 'a t -> int -> unit

val find_tenant : 'a t -> int -> 'a Tenant.t option

(** [has_tenant t id] is [find_tenant t id <> None], without the option. *)
val has_tenant : 'a t -> int -> bool
val tenants : 'a t -> 'a Tenant.t list
val tenant_count : 'a t -> int

(** [enqueue t ~tenant_id ~cost req] places a request on the tenant's
    software queue.  Raises [Not_found] for an unknown tenant. *)
val enqueue : 'a t -> tenant_id:int -> cost:float -> 'a -> unit

(** Run one scheduling round at [now]; [submit] is called, in order, for
    every request released to the NVMe queue.  Returns the number of
    submissions. *)
val schedule : 'a t -> now:Reflex_engine.Time.t -> submit:('a submission -> unit) -> int

(** Total demand (tokens) sitting in this thread's tenant queues.  O(1):
    every member tenant adds its demand changes to one shared
    {!Tenant.backlog} cell, which stays consistent even when a tenant's
    queue is drained directly, as on detach.  The result is boxed when
    called from another module; {!has_backlog} is not. *)
val backlog : 'a t -> float

(** [backlog t > 0.0], without boxing the float: the dataplane's idle
    test after every cycle. *)
val has_backlog : 'a t -> bool

(** Requests (not tokens) sitting in this thread's tenant software
    queues.  O(live tenants) sweep — a probe-path metric for the
    rack-level load balancers, not a per-cycle one ({!backlog} is the
    O(1) per-cycle aggregate). *)
val queue_depth : 'a t -> int

(** Tokens generated for LC tenants since creation (observability). *)
val lc_tokens_generated : 'a t -> float
