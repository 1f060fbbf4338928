(** Hash tables keyed by [int]: [Hashtbl.Make] with an inlined
    multiplicative hash and integer equality, so a lookup, insert or
    removal makes no C call.  For the request path's id-keyed tables
    (outstanding requests, tenants by id, access grants).

    Iteration order ({!iter}, {!fold}, {!to_seq}...) is unspecified, as
    for [Hashtbl], and reflex-lint's [det/hashtbl-order] rule treats it
    the same way. *)

include Hashtbl.S with type key = int
