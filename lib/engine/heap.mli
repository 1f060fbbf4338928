(** Binary min-heap keyed by [(Time.t, sequence)].

    The sequence number breaks ties so that events scheduled for the same
    instant execute in FIFO order — essential for deterministic replay.

    The heap stores keys and payloads in parallel arrays
    (structure-of-arrays), so {!push} and {!pop_if_le} allocate nothing
    in steady state: no per-entry box exists, and the keys are immediate
    ints. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** Allocated slot count of the backing key arrays.  Preserved across
    {!clear} so a reused heap does not re-climb the growth ladder. *)
val capacity : 'a t -> int

(** [push t ~time ~seq v] inserts [v]. *)
val push : 'a t -> time:Time.t -> seq:int -> 'a -> unit

(** Smallest element, or [None] when empty. *)
val peek : 'a t -> (Time.t * int * 'a) option

(** The smallest element's time, [Time.infinity] when empty.  Unlike
    {!peek} this allocates nothing — for hot callers that only compare
    the root against a horizon before deciding to pop. *)
val peek_time : 'a t -> Time.t

(** The smallest element's sequence number, [max_int] when empty.
    Allocation-free, like {!peek_time}. *)
val peek_seq : 'a t -> int

(** Remove and return the smallest element. *)
val pop : 'a t -> (Time.t * int * 'a) option

(** [pop_if_le t ~until] pops the smallest element only if its time is
    [<= until] and returns its payload; returns [-1] when the heap is
    empty or the minimum is beyond the horizon.  The popped key is read
    back with {!popped_time} and {!popped_seq}.  Equivalent to a {!peek}
    guard followed by {!pop}, in a single traversal, and allocates
    nothing — the simulator's hot path.  Payloads must be non-negative
    (arena slots) for the [-1] sentinel to be unambiguous. *)
val pop_if_le : int t -> until:Time.t -> int

(** Time of the element most recently removed by {!pop} or
    {!pop_if_le}; unspecified before the first removal. *)
val popped_time : 'a t -> Time.t

(** Sequence number of the element most recently removed. *)
val popped_seq : 'a t -> int

(** Empty the heap, dropping all references to stored values (the payload
    array is released, so cleared entries can be collected).  The numeric
    key arrays keep their capacity — see {!capacity} — and the payload
    array is re-made at full capacity on the next {!push}. *)
val clear : 'a t -> unit
