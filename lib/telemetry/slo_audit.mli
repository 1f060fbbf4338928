(** SLO auditor: flags traced requests of latency-critical tenants that
    exceeded their registered SLO and attributes each violation to the
    dominant latency component (the answer to "was the p95 outlier NIC
    queueing, token starvation, or die contention?"). *)

open Reflex_engine

type violation = {
  v_tenant : int;
  v_req_id : int;
  v_time : Time.t;  (** completion time *)
  v_total : Time.t;
  v_slo : Time.t;
  v_dominant : int;  (** index into {!Telemetry.Stage.component_names} *)
  v_dominant_frac : float;  (** dominant component / total *)
}

(** Index of the largest component of a breakdown. *)
val dominant_component : Trace_export.breakdown -> int

(** All SLO violations among complete traced requests of latency-critical
    tenants, in first-seen request order. *)
val violations : Telemetry.t -> violation list

type window = {
  w_start : Time.t;
  w_tenant : int;
  w_count : int;
  w_worst_us : float;
  w_dominant : int;  (** most frequent dominant component in the window *)
}

(** Violations bucketed into fixed windows (default 10ms) per tenant,
    sorted by (start, tenant). *)
val windows : ?window:Time.t -> Telemetry.t -> window list

type tenant_summary = {
  ts_tenant : int;
  ts_slo_us : int;
  ts_requests : int;  (** complete traced requests *)
  ts_violations : int;
  ts_worst_us : float;
  ts_dominant : int option;  (** across all violations; [None] if compliant *)
}

val tenant_summaries : Telemetry.t -> tenant_summary list

(** Labels of injected faults (see {!Telemetry.fault_windows}) whose
    window overlaps [\[start, stop)]. *)
val overlapping_faults : Telemetry.t -> start:Time.t -> stop:Time.t -> string list

(** Per-tenant compliance table plus the violation-window log.  When the
    run carried injected faults, each violation window is annotated with
    the fault labels active during it and the fault-window table is
    appended — the audit answers "which violations did the chaos plan
    cause, and which are the system's own". *)
val report : ?window:Time.t -> Telemetry.t -> string
