(** Binary min-heap keyed by [(Time.t, sequence)].

    The sequence number breaks ties so that events scheduled for the same
    instant execute in FIFO order — essential for deterministic replay.

    The heap stores keys and payloads in parallel arrays
    (structure-of-arrays), so {!push} and {!pop_if_le} allocate nothing
    in steady state: no per-entry box exists.  Keys and payloads are
    immediate ints — every user stores arena slots — so no store pays
    the write barrier and no popped payload stays reachable. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

(** Allocated slot count of the backing key arrays.  Preserved across
    {!clear} so a reused heap does not re-climb the growth ladder. *)
val capacity : t -> int

(** [push t ~time ~seq v] inserts [v]. *)
val push : t -> time:Time.t -> seq:int -> int -> unit

(** Smallest element, or [None] when empty. *)
val peek : t -> (Time.t * int * int) option

(** The smallest element's time, [Time.infinity] when empty.  Unlike
    {!peek} this allocates nothing — for hot callers that only compare
    the root against a horizon before deciding to pop. *)
val peek_time : t -> Time.t

(** The smallest element's sequence number, [max_int] when empty.
    Allocation-free, like {!peek_time}. *)
val peek_seq : t -> int

(** Remove and return the smallest element. *)
val pop : t -> (Time.t * int * int) option

(** [pop_if_le t ~until] pops the smallest element only if its time is
    [<= until] and returns its payload; returns [-1] when the heap is
    empty or the minimum is beyond the horizon.  The popped key is read
    back with {!popped_time} and {!popped_seq}.  Equivalent to a {!peek}
    guard followed by {!pop}, in a single traversal, and allocates
    nothing — the simulator's hot path.  Payloads must be non-negative
    (arena slots) for the [-1] sentinel to be unambiguous. *)
val pop_if_le : t -> until:Time.t -> int

(** Time of the element most recently removed by {!pop} or
    {!pop_if_le}; unspecified before the first removal. *)
val popped_time : t -> Time.t

(** Sequence number of the element most recently removed. *)
val popped_seq : t -> int

(** Empty the heap.  The arrays keep their capacity — see {!capacity}. *)
val clear : t -> unit
