(** A uniform way for applications to reach Flash — local, via ReFlex, or
    via a baseline remote server — so the Figure-7 experiments can run the
    same application model over every access path. *)

open Reflex_engine
open Reflex_flash

type t

(** Direct local access (SPDK baseline). *)
val local : Reflex_baselines.Local.t -> t

(** Remote access through the Linux block-device driver model (used for
    both ReFlex and the baseline servers — pass the matching [accept]). *)
val remote :
  Sim.t ->
  Reflex_net.Fabric.t ->
  server_host:Reflex_net.Fabric.host ->
  accept:(Reflex_proto.Message.t Reflex_net.Tcp_conn.t -> unit) ->
  n_contexts:int ->
  tenant:int ->
  ?slo:Reflex_proto.Message.slo ->
  unit ->
  (t -> unit) ->
  unit

(** Submit one block I/O; [k ~latency] on completion. *)
val submit : t -> kind:Io_op.kind -> lba:int -> bytes:int -> (latency:Time.t -> unit) -> unit
