open Reflex_engine

type permission = { lba_lo : int; lba_hi : int; can_read : bool; can_write : bool }

type policy = Default_deny | Permissive of permission

type t = { mutable policy : policy; grants : permission Int_tbl.t }

let create () = { policy = Default_deny; grants = Int_tbl.create 16 }

let create_permissive ?(lba_hi = max_int) () =
  {
    policy = Permissive { lba_lo = 0; lba_hi; can_read = true; can_write = true };
    grants = Int_tbl.create 16;
  }

let grant t ~tenant perm = Int_tbl.replace t.grants tenant perm
let revoke t ~tenant = Int_tbl.remove t.grants tenant

type verdict = Allowed | Denied_permission | Denied_range

let lookup t ~tenant =
  match Int_tbl.find_opt t.grants tenant with
  | Some p -> Some p
  | None -> ( match t.policy with Permissive p -> Some p | Default_deny -> None)

let check t ~tenant ~kind ~lba ~lba_count =
  match lookup t ~tenant with
  | None -> Denied_permission
  | Some p ->
    let allowed_op =
      match (kind : Reflex_flash.Io_op.kind) with Read -> p.can_read | Write -> p.can_write
    in
    if not allowed_op then Denied_permission
    (* [lba, lba + lba_count) within [lba_lo, lba_hi), compared as
       [lba_count <= lba_hi - lba]: once [0 <= lba <= lba_hi] the
       difference cannot overflow, where [lba + lba_count - 1] could
       near [max_int]. *)
    else if lba >= 0 && lba >= p.lba_lo && lba <= p.lba_hi && lba_count <= p.lba_hi - lba then
      Allowed
    else Denied_range

let connection_allowed t ~tenant = lookup t ~tenant <> None
