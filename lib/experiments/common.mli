(** Shared scaffolding for the paper-reproduction experiments: world
    construction (simulation + fabric + servers + clients), measured load
    runs, and quick/full duration scaling. *)

open Reflex_engine
open Reflex_net
open Reflex_client

(** Quick mode shortens measurement windows and thins sweeps so the whole
    harness finishes in minutes; Full uses longer windows for smoother
    percentiles. *)
type mode = Quick | Full

val window : mode -> Time.t
(** Base measurement window: 150ms (Quick) / 500ms (Full). *)

val scale_points : mode -> 'a list -> 'a list -> 'a list
(** [scale_points mode quick full] picks the sweep for the mode. *)

(** A ReFlex deployment on a fresh simulation. *)
type reflex_world = {
  sim : Sim.t;
  fabric : Fabric.t;
  server : Reflex_core.Server.t;
  telemetry : Reflex_telemetry.Telemetry.t;
      (** the world's observability sink; {!Reflex_telemetry.Telemetry.disabled}
          unless requested *)
}

(** When set, worlds built by {!make_reflex} without an explicit
    [?telemetry] get a fresh enabled instance (one per world — safe under
    {!Runner} domain parallelism) with a flight ring attached for the
    scheduler decision log.
    Driven by the [--telemetry]/[--trace-out] CLI flags. *)
val set_default_telemetry : bool -> unit

(** The telemetry of the most recent enabled world ({e serial} runs only
    — the trace exporter forces [jobs=1]). *)
val last_telemetry : Reflex_telemetry.Telemetry.t option ref

val make_reflex :
  ?n_threads:int ->
  ?max_threads:int ->
  ?qos:bool ->
  ?profile:Reflex_flash.Device_profile.t ->
  ?neg_limit:float ->
  ?donate_fraction:float ->
  ?seed:int64 ->
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  unit ->
  reflex_world

(** A baseline (libaio / iSCSI) deployment. *)
type baseline_world = {
  bsim : Sim.t;
  bfabric : Fabric.t;
  bserver : Reflex_baselines.Baseline_server.t;
}

val make_baseline :
  kind:Reflex_baselines.Baseline_server.kind -> ?n_threads:int -> ?seed:int64 -> unit -> baseline_world

(** Connect a client and register; runs the simulation until the
    registration completes.  Raises [Failure] if it is refused.
    [retry]/[retry_seed] pass through to {!Client_lib.connect} for
    chaos experiments that want deadlines and retries. *)
val client_of :
  reflex_world ->
  ?stack:Stack_model.t ->
  ?slo:Reflex_proto.Message.slo ->
  ?retry:Retry.policy ->
  ?retry_seed:int64 ->
  tenant:int ->
  unit ->
  Client_lib.t

val client_of_baseline :
  baseline_world -> ?stack:Stack_model.t -> tenant:int -> unit -> Client_lib.t

(** Try to register an LC tenant; [Ok client] or [Error status]. *)
val try_client_of :
  reflex_world ->
  ?stack:Stack_model.t ->
  ?slo:Reflex_proto.Message.slo ->
  ?retry:Retry.policy ->
  ?retry_seed:int64 ->
  tenant:int ->
  unit ->
  (Client_lib.t, Reflex_proto.Message.status) result

(** Current git commit hash, read directly from [.git/HEAD] (no
    subprocess); ["unknown"] outside a checkout.  Embedded in the bench
    harness's JSON outputs. *)
val git_sha : unit -> string

(** [measure_generators sim gens ~warmup ~window] runs warmup, marks all
    generators, runs the window, freezes them, then drains briefly. *)
val measure_generators : Sim.t -> Load_gen.t list -> warmup:Time.t -> window:Time.t -> unit

(** Helper to build a latency-critical register-message SLO. *)
val lc_slo : latency_us:int -> iops:int -> read_pct:int -> Reflex_proto.Message.slo

val be_slo : ?read_pct:int -> unit -> Reflex_proto.Message.slo
