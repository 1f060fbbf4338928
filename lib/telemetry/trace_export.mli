(** Exporters over the telemetry span ring: Chrome [trace_event] JSON and
    plain-text per-request latency breakdowns.

    Requests are identified by the (tenant, req_id) pair.  A request is
    {e complete} when all {!Telemetry.Stage.count} stages were stamped with
    monotone times; its seven components tile the end-to-end interval, so
    their sum equals the total latency exactly. *)

open Reflex_engine

type request = {
  r_tenant : int;
  r_req_id : int;
  r_stamps : Time.t array;  (** [Stage.count] entries; negative = not seen *)
}

(** All requests reconstructible from the retained span window, in
    first-seen order (deterministic). *)
val requests : Telemetry.t -> request list

val complete : request -> bool

type breakdown = {
  b_tenant : int;
  b_req_id : int;
  b_start : Time.t;
  b_total : Time.t;  (** end-to-end client latency *)
  b_components : Time.t array;
      (** [Stage.component_count] entries; sums to [b_total] *)
}

val breakdown_of_request : request -> breakdown

(** Breakdowns of the complete requests, first-seen order. *)
val breakdowns : Telemetry.t -> breakdown list

(** Top [top] (default 10) requests by end-to-end latency, one line each
    with all seven components in µs. *)
val breakdown_report : ?top:int -> Telemetry.t -> string

type component_stat = {
  cs_name : string;
  cs_mean_us : float;
  cs_p95_us : float;
  cs_max_us : float;
  cs_share : float;  (** fraction of summed end-to-end time spent here *)
}

(** Aggregate statistics per latency component, over complete requests. *)
val component_summary : Telemetry.t -> component_stat array

val component_report : Telemetry.t -> string

(** {1 Causal span trees}

    [Follows_from] links (recorded by the client when a timed-out
    attempt is re-issued under a fresh req_id) chained into per-root
    attempt sequences. *)

(** [(tenant, [attempt-0 req_id; attempt-1; ...])] per chain, in
    first-link order (deterministic). *)
val retry_chains : Telemetry.t -> (int * int list) list

(** Chain listing capped at [top] (default 20) with total/longest
    counts in the header. *)
val retry_tree_report : ?top:int -> Telemetry.t -> string

(** Latest timestamp observed anywhere in the telemetry (spans, fault
    marks, samples) — the effective end of the trace. *)
val last_time : Telemetry.t -> Time.t

(** Chrome [trace_event] JSON (load in [about://tracing] or Perfetto):
    one ["ph":"X"] duration event per component of each complete request
    (pid = tenant, tid = req_id), one instant event per raw span, and one
    ["cat":"fault"] duration event per injected-fault window (pid 0 /
    tid 0; windows still open at export close at {!last_time}) so fault
    injections visually align with the latency spikes they caused.
    Causal links render as flow arrows (["ph":"s"]/["ph":"f"] pairs,
    cat ["link"]) between the linked requests' rows, and remediation
    applications as cat ["remediation"] instants.  [extra] appends
    caller-rendered trace_event objects (one complete JSON object per
    element) — lib/monitor uses it for alert-timeline instants. *)
val to_chrome_json : ?extra:string list -> Telemetry.t -> string

val write_chrome_json : ?extra:string list -> Telemetry.t -> string -> unit
