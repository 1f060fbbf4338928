(** Per-tenant scheduling state: the software request queue, the token
    balance, and the recent-grant history used for POS_LIMIT (paper
    §3.2.2).

    {1 Representation}

    Under dune's default profile every library is compiled with [-opaque],
    so a float passed to or returned from a function of another
    compilation unit is boxed on each call.  All per-tenant float state
    therefore lives in {!acct}, an all-float record that OCaml stores flat:
    {!Scheduler}'s Algorithm-1 round reads and writes its fields in place,
    which allocates nothing and needs no write barrier.  This module owns
    the request queue and the POS_LIMIT slot index; the token arithmetic
    of a round is {!Scheduler}'s alone.

    The request queue is a growable ring of parallel arrays (a flat
    [float array] of costs and an ['a array] of payloads), so {!enqueue}
    and {!pop} allocate nothing once the ring has grown to the tenant's
    deepest backlog.  A vacated payload slot is overwritten with the
    tenant's first request, so the ring keeps at most that one delivered
    request alive. *)

(** Per-tenant float state, stored unboxed.  [g0]/[g1]/[g2] are the
    POS_LIMIT ring of the last three rounds' grants, the slot chosen by
    {!next_grant_slot}.  [demand] and [head_cost] are maintained by
    {!enqueue}/{!pop} and are read-only to everything else. *)
type acct = {
  mutable token_rate : float;  (** tokens/sec granted by the control plane *)
  mutable tokens : float;  (** current balance, down to NEG_LIMIT *)
  mutable demand : float;  (** sum of the queued requests' costs *)
  mutable head_cost : float;
      (** cost of the request at the head of the queue; [0.0] exactly when
          the queue is empty (every queued cost is positive) *)
  mutable submitted_cost : float;
  mutable granted_total : float;
  mutable g0 : float;
  mutable g1 : float;
  mutable g2 : float;
}

(** A float cell shared by every tenant of one scheduler: each
    {!enqueue}/{!pop} adds its signed demand change to [total], which keeps
    the scheduler's backlog aggregate O(1) even when a queue is drained
    directly (tenant detach). *)
type backlog = { mutable total : float }

type 'a t

(** [create ~id ~slo ~token_rate] — [token_rate] is tokens/sec granted by
    the control plane (an LC tenant's weighted SLO rate, or a BE tenant's
    fair share of unallocated throughput).  The ring starts empty and
    grows to 4 slots on the first request. *)
val create : id:int -> slo:Slo.t -> token_rate:float -> 'a t

val id : 'a t -> int
val slo : 'a t -> Slo.t
val is_latency_critical : 'a t -> bool

(** The tenant's float state, for in-place use by {!Scheduler}. *)
val acct : 'a t -> acct

val token_rate : 'a t -> float
val set_token_rate : 'a t -> float -> unit

(** Current token balance (may be negative down to the scheduler's
    NEG_LIMIT). *)
val tokens : 'a t -> float

(** {1 Request queue} *)

(** [enqueue t ~cost req] appends a request whose submission will cost
    [cost] tokens.  Doubles the ring when it is full.  Raises
    [Invalid_argument] on a non-positive cost. *)
val enqueue : 'a t -> cost:float -> 'a -> unit

(** Remove and return the head request.  Its cost is [(acct t).head_cost],
    read before the call.  Allocates nothing.  Raises [Invalid_argument]
    when the queue is empty. *)
val pop : 'a t -> 'a

(** Sum of the costs of all queued requests — the tenant's demand. *)
val demand : 'a t -> float

val queue_length : 'a t -> int

(** [attach_backlog t cell] makes [cell] receive the signed demand change
    on every {!enqueue}/{!pop}.  A tenant belongs to at most one
    scheduler, so at most one cell is attached. *)
val attach_backlog : 'a t -> backlog -> unit

(** Give the tenant a private cell again (on removal from a scheduler). *)
val detach_backlog : 'a t -> unit

(** {1 Grant history (POS_LIMIT)} *)

(** The POS_LIMIT slot (0, 1 or 2 for [g0], [g1], [g2]) that this round's
    grant overwrites, advancing the ring.  POS_LIMIT is [g0 +. g1 +. g2]:
    the tokens received over the last three scheduling rounds (paper:
    accommodates short bursts without going into deficit). *)
val next_grant_slot : 'a t -> int

(** {1 Accounting} *)

val submitted_cost_total : 'a t -> float

(** Total tokens ever granted to this tenant (observability). *)
val granted_total : 'a t -> float
