type completion = { cookie : int; kind : Io_op.kind; latency : Reflex_engine.Time.t }

(* The completion queue is a structure-of-arrays ring, not a [Queue.t]
   of records: the interrupt path writes three array slots and bumps the
   tail, so completion delivery allocates nothing in steady state.  The
   ring starts at [sq_depth] (one CQ entry per inflight command) and
   doubles in the cold [cq_grow] helper if reaping ever lags submission
   by more than a full ring. *)
type t = {
  dev : Nvme_model.t;
  mutable cq_cookie : int array;
  mutable cq_kind : Io_op.kind array;
  mutable cq_lat : Reflex_engine.Time.t array;
  mutable cq_mask : int;
  mutable cq_head : int;
  mutable cq_len : int;
  mutable inflight : int;
  mutable completion_hook : unit -> unit;
  (* [complete t], made once in [create]: every command's completion *)
  mutable on_complete : int -> unit;
}

(* A command's device continuation carries its cookie and kind in one
   int: [cookie lsl 1], plus 1 for a write. *)
let tag ~cookie (kind : Io_op.kind) = (cookie lsl 1) lor (match kind with Read -> 0 | Write -> 1)

let set_completion_hook t f = t.completion_hook <- f

(* Cold: only when unreaped completions fill the ring. *)
let cq_grow t =
  let old = t.cq_mask + 1 in
  let size = old * 2 in
  let cookie = Array.make size 0 in
  let kind = Array.make size Io_op.Read in
  let lat = Array.make size Reflex_engine.Time.zero in
  for k = 0 to t.cq_len - 1 do
    let i = (t.cq_head + k) land t.cq_mask in
    cookie.(k) <- t.cq_cookie.(i);
    kind.(k) <- t.cq_kind.(i);
    lat.(k) <- t.cq_lat.(i)
  done;
  t.cq_cookie <- cookie;
  t.cq_kind <- kind;
  t.cq_lat <- lat;
  t.cq_mask <- size - 1;
  t.cq_head <- 0

(* The interrupt path: three ring stores and the hook. *)
let complete t tagged =
  t.inflight <- t.inflight - 1;
  if t.cq_len > t.cq_mask then cq_grow t;
  let i = (t.cq_head + t.cq_len) land t.cq_mask in
  t.cq_cookie.(i) <- tagged lsr 1;
  t.cq_kind.(i) <- (if tagged land 1 = 0 then Io_op.Read else Io_op.Write);
  t.cq_lat.(i) <- Nvme_model.last_latency t.dev;
  t.cq_len <- t.cq_len + 1;
  t.completion_hook ()

let create dev =
  let depth = (Nvme_model.profile dev).Device_profile.sq_depth in
  let size = ref 16 in
  while !size < depth do size := !size * 2 done;
  let t =
  {
    dev;
    cq_cookie = Array.make !size 0;
    cq_kind = Array.make !size Io_op.Read;
    cq_lat = Array.make !size Reflex_engine.Time.zero;
    cq_mask = !size - 1;
    cq_head = 0;
    cq_len = 0;
    inflight = 0;
    completion_hook = (fun () -> ());
    on_complete = (fun _ -> ());
  }
  in
  t.on_complete <- complete t;
  t

let submit t ~kind ~bytes ~cookie =
  let depth = (Nvme_model.profile t.dev).Device_profile.sq_depth in
  if t.inflight >= depth then `Full
  else begin
    t.inflight <- t.inflight + 1;
    Nvme_model.submit t.dev ~kind ~bytes t.on_complete (tag ~cookie kind);
    `Ok
  end

let drain t ~max ~f =
  let n = if max < t.cq_len then max else t.cq_len in
  for _ = 1 to n do
    let i = t.cq_head in
    t.cq_head <- (i + 1) land t.cq_mask;
    t.cq_len <- t.cq_len - 1;
    f ~cookie:t.cq_cookie.(i) ~kind:t.cq_kind.(i) ~latency:t.cq_lat.(i)
  done;
  n

let poll t ~max =
  let acc = ref [] in
  ignore
    (drain t ~max ~f:(fun ~cookie ~kind ~latency -> acc := { cookie; kind; latency } :: !acc));
  List.rev !acc

let inflight t = t.inflight
let completions_pending t = t.cq_len
