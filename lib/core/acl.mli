(** Access-control policy (paper §4.1 "Security model").

    ReFlex checks whether a client may open a connection to a tenant and
    whether a tenant has read/write permission over an NVMe namespace
    (a range of logical blocks). *)

type permission = { lba_lo : int; lba_hi : int; can_read : bool; can_write : bool }

type t

(** [create ()] — default-deny: tenants must be granted a namespace. *)
val create : unit -> t

(** [create_permissive ~lba_hi] grants every tenant read/write over
    [0, lba_hi). *)
val create_permissive : ?lba_hi:int -> unit -> t

val grant : t -> tenant:int -> permission -> unit
val revoke : t -> tenant:int -> unit

type verdict = Allowed | Denied_permission | Denied_range

(** Check one I/O against the policy.  [lba_count] is in 4KB blocks; the
    I/O is in range when all of [[lba, lba + lba_count)] lies in
    [[lba_lo, lba_hi)], decided without overflow for any [lba] and
    [lba_count] (a negative [lba] is out of range). *)
val check :
  t -> tenant:int -> kind:Reflex_flash.Io_op.kind -> lba:int -> lba_count:int -> verdict

(** May this tenant id open a connection at all? *)
val connection_allowed : t -> tenant:int -> bool
