(** Hop-stamp sink: lets the per-server dataplane report NVMe
    submit/complete instants for a (tenant, request) pair to a rack-level
    trace recorder without [lib/core] depending on [lib/rack_obs].

    A sink is either {!null} (inert: one immutable bool test per call) or
    armed via {!make}.  The hop indices are owned by [Rack_obs]: 2 = NVMe
    submit, 3 = NVMe complete (0/1/4 are stamped rack-side at pick, ingress
    issue and reply).  Stamps never influence simulation state. *)

open Reflex_engine

type t

(** The inert sink: {!stamp} is a no-op behind one immutable bool read. *)
val null : t

(** [make f] arms a sink whose every {!stamp} calls [f]. *)
val make : (tenant:int -> req:int -> hop:int -> now:Time.t -> unit) -> t

val enabled : t -> bool

(** [stamp t ~tenant ~req ~hop ~now] reports one hop instant.  Allocation
    free on the caller side; a no-op on {!null}. *)
val stamp : t -> tenant:int -> req:int -> hop:int -> now:Time.t -> unit
