(** A work-conserving single-server FIFO resource with two priority
    levels.

    Models any component that serves jobs one at a time: a CPU core, one
    Flash die, a NIC link, a kernel thread.  High-priority jobs always
    start before queued low-priority jobs, but service is non-preemptive:
    a long low-priority job (e.g. a Flash erase) blocks the server until
    it completes — this is exactly the mechanism behind read/write
    interference on Flash.

    A job is a service time plus an int-argument continuation and its
    argument.  A caller that makes its continuation once (per object, at
    creation) and passes a slot or cookie as the argument submits
    without allocating: waiting jobs live in per-priority rings of
    parallel arrays, empty until first needed, and every job completes
    through one event whose thunk the resource made at creation. *)

type t

type priority = High | Low

val create : Sim.t -> t

(** [submit t ~priority ~service k arg] enqueues a job needing [service]
    time; [k arg] runs when it completes.  When the completion event
    fires the next waiting job is put in service first, then [k arg]
    runs.  @raise Invalid_argument if [service] is negative. *)
val submit : t -> ?priority:priority -> service:Time.t -> (int -> unit) -> int -> unit

(** Jobs currently being served: 0 or 1. *)
val busy : t -> int

(** Jobs waiting in the two queues (high, low). *)
val queued : t -> int * int

(** Cumulative busy time, for utilization accounting. *)
val busy_time : t -> Time.t

(** Utilization in [0, 1] over the interval since creation. *)
val utilization : t -> float

(** Total jobs completed. *)
val completed : t -> int
