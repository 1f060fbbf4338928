(** The ReFlex server: dataplane threads + control plane + tenant/ACL
    management behind the wire protocol.

    A server owns one NVMe device and [max_threads] dataplane threads
    (each with its own core and NVMe queue pair).  Clients connect over
    the fabric, register tenants with SLOs (Table 1's [register] call),
    then issue logical-block reads and writes; responses flow back over
    the same connection.  Each tenant is served by exactly one thread
    (paper §4.1 limitation); connections are counted per thread for the
    LLC-pressure model. *)

open Reflex_engine
open Reflex_net
open Reflex_proto

type t

val create :
  Sim.t ->
  fabric:Fabric.t ->
  ?profile:Reflex_flash.Device_profile.t ->
  (* default device A *)
  ?n_threads:int ->
  (* initially active threads, default 1 *)
  ?max_threads:int ->
  (* default n_threads *)
  ?costs:Costs.t ->
  ?acl:Acl.t ->
  (* default permissive *)
  ?token_rate_fn:(latency_us:float -> float) ->
  ?qos:bool ->
  (* default true; false disables the QoS scheduler (Figure 5's
     "I/O sched disabled"): tenants get unbounded token rates and requests
     flow to the device unthrottled *)
  ?neg_limit:float ->
  (* scheduler deficit limit, default -50 tokens — for ablations *)
  ?donate_fraction:float ->
  (* donation share above POS_LIMIT, default 0.9 — for ablations *)
  ?cost_model:Reflex_qos.Cost_model.t ->
  (* override the device-derived request cost model — for ablations *)
  ?seed:int64 ->
  ?telemetry:Reflex_telemetry.Telemetry.t ->
  (* observability sink, default disabled.  When enabled the server
     threads it through the device, every dataplane thread and the QoS
     schedulers: lifecycle spans ([Server_rx] ... [Tx_resp]), per-tenant latency histograms and an
     [qos/t<ID>/slo_headroom_us] gauge for LC tenants. *)
  unit ->
  t

(** The server's network endpoint; clients connect to it. *)
val host : t -> Fabric.host

val device : t -> Reflex_flash.Nvme_model.t
val control_plane : t -> Control_plane.t

(** [accept t conn] attaches an incoming connection: the server starts
    handling protocol messages arriving on it. *)
val accept : t -> Message.t Tcp_conn.t -> unit

(** {1 Thread management} *)

val active_threads : t -> int

(** Activate/deactivate threads and rebalance tenants (paper §4.3).
    Clamped to [1, max_threads]. *)
val scale_threads : t -> int -> unit

(** Enable periodic utilization-driven right-sizing.  Note: the monitor
    reschedules itself forever, so once enabled the simulation's event
    queue never drains — drive the simulation with [Sim.run ~until]. *)
val enable_autoscaling :
  t -> ?period:Time.t -> ?high_watermark:float -> ?low_watermark:float -> unit -> unit

(** {1 Observability} *)

val requests_completed : t -> int

(** Times the QoS scheduler found this tenant past its token deficit
    limit (NEG_LIMIT) — the §3.2.2 control-plane notification. *)
val deficit_notifications : t -> tenant:int -> int

(** §4.3: a tenant that consistently bursts above its reservation should
    renegotiate its SLO. *)
val needs_renegotiation : ?threshold:int -> t -> tenant:int -> bool
val tenant_completed : t -> tenant:int -> int

(** Aggregate tokens/s spent across threads (Figure 6a's green line). *)
val token_usage_rate : t -> float

(** Cumulative tokens spent across threads (take deltas for windowed
    rates). *)
val tokens_spent : t -> float

(** Cumulative weighted tokens one tenant's submitted requests have cost
    (0 for unknown tenants).  Windowed deltas of this against the
    device's {!Reflex_flash.Device_profile.knee_token_rate} drive the
    monitoring layer's load-knee detector. *)
val tenant_tokens_submitted : t -> tenant:int -> float

val thread_utilizations : t -> float list
val registered_tenants : t -> int

(** Requests currently inside the server, wherever they sit: unparsed
    receive-ring entries, software-queued requests awaiting tokens, and
    in-flight NVMe commands, summed across threads.  O(tenants) — the
    probe-path backlog signal sampled by the rack-level load balancers
    ([lib/rack]), not a per-cycle counter. *)
val queue_depth : t -> int

(** [set_hopsink t sink] arms the rack-trace hop sink on every dataplane
    thread (see [Dataplane.set_hopsink]); [Reflex_obs.Hopsink.null]
    disarms. *)
val set_hopsink : t -> Reflex_obs.Hopsink.t -> unit

(** {1 Resilience hooks}

    Driven by [Reflex_faults] — fault injection on the dataplane and the
    control plane's reaction to device degradation. *)

(** Occupy one dataplane thread's core with [duration] of high-priority
    foreign work (interrupt storm, noisy co-tenant).
    @raise Invalid_argument if [thread] is out of range. *)
val inject_thread_stall : t -> thread:int -> duration:Time.t -> unit

(** Degradation re-pricing: scale the control plane's usable capacity by
    [capacity_factor] (in (0,1]; 1.0 restores full capacity) and re-push
    every tenant's token rate.  Admission decisions, BE fair shares and
    LC reservations all reflect the reduced capacity immediately. *)
val reprice : t -> capacity_factor:float -> unit

(** Demote a latency-critical tenant to best-effort in place: its
    reservation is released, its queued requests migrate with it, and it
    keeps running at the BE fair share.  Returns [true] if the tenant was
    LC and is now BE ([false]: unknown tenant or already BE). *)
val demote_tenant : t -> tenant:int -> bool
