(** Simulated time, in integer nanoseconds.

    All simulation components share this representation.  Integer
    nanoseconds (rather than float seconds) keep event ordering exact and
    simulations bit-for-bit reproducible.  The type is a private immediate
    [int]: 63-bit nanoseconds cover about 146 years, and an immediate
    never boxes, so passing or storing a time allocates nothing.  Read the
    raw count with a coercion, [(t :> int)]; build one with {!ns}.

    The constructor {!ns}, the arithmetic {!add}/{!sub}/{!diff} and the
    comparisons are [external] primitives: dune compiles libraries with
    [-opaque], which hides ordinary function bodies from other modules,
    but a primitive declared here compiles to a single integer
    instruction at every call site. *)

type t = private int

(** Zero nanoseconds. *)
val zero : t

(** [max_int] nanoseconds: later than any reachable time. *)
val infinity : t

(** {1 Constructors} *)

external ns : int -> t = "%identity"
val us : int -> t
val ms : int -> t
val sec : int -> t

(** [of_float_us x] converts a (possibly fractional) number of microseconds,
    rounding to the nearest nanosecond. *)
val of_float_us : float -> t

val of_float_ns : float -> t
val of_float_sec : float -> t

(** {1 Conversions} *)

val to_float_us : t -> float
val to_float_ms : t -> float
val to_float_sec : t -> float
val to_float_ns : t -> float

(** {1 Arithmetic} *)

external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"

(** [diff a b] is [a - b], the duration between two instants. *)
external diff : t -> t -> t = "%subint"

(** [scale t x] multiplies a duration by a float factor. *)
val scale : t -> float -> t

val max : t -> t -> t
val min : t -> t -> t
external compare : t -> t -> int = "%compare"
external ( < ) : t -> t -> bool = "%lessthan"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( > ) : t -> t -> bool = "%greaterthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external equal : t -> t -> bool = "%equal"

(** Pretty-printer choosing a human unit (ns/us/ms/s). *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
