open Reflex_engine
open Reflex_stats
module Flight = Reflex_obs.Flight
module Profiler = Reflex_obs.Profiler

(* The observability core.  One instance per simulated world.  The single
   design rule: when [enabled] is false (the shared {!disabled} value),
   no record operation mutates anything and no record site allocates —
   every hot-path hook in the dataplane is guarded by a read of the
   immutable [enabled] bit.  The enabled path may allocate freely. *)

module Stage = struct
  type t =
    | Client_submit
    | Server_rx
    | Sched_enqueue
    | Granted
    | Nvme_submit
    | Nvme_complete
    | Tx_resp
    | Client_complete

  let count = 8

  let to_int = function
    | Client_submit -> 0
    | Server_rx -> 1
    | Sched_enqueue -> 2
    | Granted -> 3
    | Nvme_submit -> 4
    | Nvme_complete -> 5
    | Tx_resp -> 6
    | Client_complete -> 7

  let of_int = function
    | 0 -> Client_submit
    | 1 -> Server_rx
    | 2 -> Sched_enqueue
    | 3 -> Granted
    | 4 -> Nvme_submit
    | 5 -> Nvme_complete
    | 6 -> Tx_resp
    | 7 -> Client_complete
    | n -> invalid_arg (Printf.sprintf "Stage.of_int: %d" n)

  let name = function
    | Client_submit -> "client_submit"
    | Server_rx -> "server_rx"
    | Sched_enqueue -> "sched_enqueue"
    | Granted -> "token_grant"
    | Nvme_submit -> "nvme_submit"
    | Nvme_complete -> "nvme_complete"
    | Tx_resp -> "tx_resp"
    | Client_complete -> "client_complete"

  (* Name of the latency component that ends at stage [i+1]; the seven
     components tile [client_submit, client_complete] exactly, so their
     sum telescopes to the end-to-end latency. *)
  let component_names =
    [| "net_in"; "parse_enqueue"; "sched_wait"; "sq_submit"; "nvme"; "cq_tx"; "net_out" |]

  let component_count = Array.length component_names
end

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

type counter = { mutable value : float }

type metric =
  | Counter of counter
  | Gauge of (unit -> float)
  | Hist of Hdr_histogram.t

type slo_target = { st_latency_critical : bool; st_latency_us : int }

type fault_event = { f_time : Time.t; f_label : string; f_active : bool }

(* Causal edges between spans: [Follows_from] chains retry attempts of one
   logical operation (distinct req_ids), [Child_of] hangs a derived span
   under its parent.  Links are rare (retries, remediations), so a list is
   fine — the hot request path never touches them. *)
type link_kind = Follows_from | Child_of

type link = {
  l_time : Time.t;
  l_kind : link_kind;
  l_src : int * int; (* (tenant, req_id) *)
  l_dst : int * int;
}

type t = {
  enabled : bool;
  (* Lifecycle spans as [Flight.Kind.Stage] records in a ring of their
     own, separate from the forensic [flight] ring below so span volume
     never moves a dump window. *)
  spans : Flight.t;
  metrics : (string, metric) Hashtbl.t;
  tenant_slos : (int, slo_target) Hashtbl.t;
  (* Per-tenant latency histograms, indexed by tenant id; [dummy_hist]
     marks unset slots.  The per-request record path is a bounds check
     and an array load — the former Hashtbl lookup allocated an option
     per request. *)
  mutable tlat : Hdr_histogram.t array;
  mutable faults_rev : fault_event list; (* injected-fault marks, newest first *)
  (* lib/obs attachments: the always-on flight recorder rides on the
     telemetry instance so every layer that already threads a [t] can
     reach it; both default to the shared disabled instances. *)
  mutable flight : Flight.t;
  mutable profiler : Profiler.t;
  mutable links_rev : link list; (* causal span links, newest first *)
  mutable remediations_rev : (Time.t * string * string) list; (* (time, rule, outcome) *)
}

(* Shared sinks handed out by the disabled instance; guarded record
   sites never write to them, so sharing across domains is safe. *)
let dummy_counter = { value = 0.0 }
let dummy_hist = Hdr_histogram.create ()

let make ~enabled ~spans =
  {
    enabled;
    spans;
    metrics = Hashtbl.create 64;
    tenant_slos = Hashtbl.create 16;
    tlat = [||];
    faults_rev = [];
    flight = Flight.disabled;
    profiler = Profiler.disabled;
    links_rev = [];
    remediations_rev = [];
  }

let disabled = make ~enabled:false ~spans:Flight.disabled

let create ?(span_capacity = 1 lsl 16) () =
  make ~enabled:true ~spans:(Flight.create ~capacity:span_capacity ())

let enabled t = t.enabled [@@inline]

(* ---------------- lib/obs attachments ---------------- *)

let flight t = t.flight [@@inline]

let set_flight t fl =
  if not t.enabled then invalid_arg "Telemetry.set_flight: disabled instance";
  t.flight <- fl

let profiler t = t.profiler [@@inline]

(* ---------------- spans ---------------- *)

(* Packed like [Flight.Kind.Hop]: a = req_id, b = (tenant lsl 3) lor
   stage.  The disabled instance's ring is [Flight.disabled], whose
   record is a no-op. *)
let span t ~now ~tenant ~req_id stage =
  Flight.record t.spans ~now ~kind:Flight.Kind.Stage ~a:req_id
    ~b:((tenant lsl 3) lor Stage.to_int stage)
    ~v:0.0

let span_count t = Flight.retained t.spans
let spans_recorded t = Flight.total t.spans
let spans_dropped t = Flight.dropped t.spans

let iter_spans t f =
  Flight.iter t.spans (fun ~time ~kind:_ ~a ~b ~v:_ ->
      f ~time ~tenant:(b asr 3) ~req_id:a ~stage:(Stage.of_int (b land 7)))

(* ---------------- metrics ---------------- *)

let counter t name =
  if not t.enabled then dummy_counter
  else
    match Hashtbl.find_opt t.metrics name with
    | Some (Counter c) -> c
    | Some _ -> invalid_arg ("Telemetry.counter: " ^ name ^ " registered as another kind")
    | None ->
      let c = { value = 0.0 } in
      Hashtbl.replace t.metrics name (Counter c);
      c

let add c x = c.value <- c.value +. x
let incr c = add c 1.0
let counter_value c = c.value

let register_gauge t name f = if t.enabled then Hashtbl.replace t.metrics name (Gauge f)
let unregister t name = if t.enabled then Hashtbl.remove t.metrics name

(* Attaching a profiler also publishes its accumulators as gauges, so the
   per-subsystem cost shares reach the Monitor's Tsdb and the Prometheus
   exporter with no extra plumbing.  The values are host wall time —
   nondeterministic by design (see Profiler's contract); they are only
   present when a profiler is explicitly attached. *)
let set_profiler t p =
  if not t.enabled then invalid_arg "Telemetry.set_profiler: disabled instance";
  t.profiler <- p;
  if Profiler.enabled p then
    List.iter
      (fun sub ->
        let n = Profiler.Subsystem.name sub in
        register_gauge t
          (Printf.sprintf "obs/prof/%s/wall_ms" n)
          (fun () -> Profiler.wall_s p sub *. 1e3);
        register_gauge t
          (Printf.sprintf "obs/prof/%s/minor_words" n)
          (fun () -> Profiler.minor_words p sub))
      Profiler.Subsystem.all

let histogram t name =
  if not t.enabled then dummy_hist
  else
    match Hashtbl.find_opt t.metrics name with
    | Some (Hist h) -> h
    | Some _ -> invalid_arg ("Telemetry.histogram: " ^ name ^ " registered as another kind")
    | None ->
      let h = Hdr_histogram.create () in
      Hashtbl.replace t.metrics name (Hist h);
      h

let metric_names t =
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.metrics [] in
  List.sort compare names

(* Typed read-only view of one registered metric (exporters need the
   kind, not just the scalar [metric_value] projection). *)
let find_metric t name =
  match Hashtbl.find_opt t.metrics name with
  | None -> None
  | Some (Counter c) -> Some (`Counter c.value)
  | Some (Gauge g) -> Some (`Gauge (g ()))
  | Some (Hist h) -> Some (`Hist h)

(* ---------------- tenant dimensions ---------------- *)

let set_tenant_slo t ~tenant ~latency_critical ~latency_us =
  if t.enabled then
    Hashtbl.replace t.tenant_slos tenant
      { st_latency_critical = latency_critical; st_latency_us = latency_us }

let tenant_slo t ~tenant =
  match Hashtbl.find_opt t.tenant_slos tenant with
  | Some { st_latency_critical; st_latency_us } -> Some (st_latency_critical, st_latency_us)
  | None -> None

let tenants_with_slo t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tenant_slos [])

(* Cold path: grow the tenant-histogram array to cover [tenant],
   filling fresh slots with the [dummy_hist] sentinel. *)
let grow_tlat t tenant =
  let cap = Array.length t.tlat in
  let ncap = ref (if cap = 0 then 16 else cap * 2) in
  while !ncap <= tenant do
    ncap := !ncap * 2
  done;
  let arr = Array.make !ncap dummy_hist in
  Array.blit t.tlat 0 arr 0 cap;
  t.tlat <- arr

let rec tenant_latency_hist t ~tenant =
  if not t.enabled then dummy_hist
  else if tenant < Array.length t.tlat then begin
    let h = t.tlat.(tenant) in
    if h != dummy_hist then h
    else begin
      let h = Hdr_histogram.create () in
      t.tlat.(tenant) <- h;
      h
    end
  end
  else begin
    grow_tlat t tenant;
    tenant_latency_hist t ~tenant
  end

let record_tenant_latency t ~tenant lat =
  if t.enabled then Hdr_histogram.record (tenant_latency_hist t ~tenant) (lat : Time.t :> int)

(* ---------------- causal span links ---------------- *)

let link t ~now ~kind ~src_tenant ~src_req ~dst_tenant ~dst_req =
  if t.enabled then
    t.links_rev <-
      { l_time = now; l_kind = kind; l_src = (src_tenant, src_req); l_dst = (dst_tenant, dst_req) }
      :: t.links_rev

let links t = List.rev_map (fun l -> (l.l_time, l.l_kind, l.l_src, l.l_dst)) t.links_rev

let remediation_mark t ~now ~rule ~outcome =
  if t.enabled then begin
    t.remediations_rev <- (now, rule, outcome) :: t.remediations_rev;
    if Flight.enabled t.flight then
      Flight.record t.flight ~now ~kind:Flight.Kind.Remediate
        ~a:(Flight.intern t.flight rule) ~b:(Flight.intern t.flight outcome) ~v:0.0
  end

let remediation_log t = List.rev t.remediations_rev

(* ---------------- fault marks ---------------- *)

let fault_mark t ~now ~label ~active =
  if t.enabled then begin
    t.faults_rev <- { f_time = now; f_label = label; f_active = active } :: t.faults_rev;
    (* Mirror the transition into the flight ring so a forensic dump can
       frame the fault window without consulting telemetry. *)
    if Flight.enabled t.flight then
      Flight.record t.flight ~now
        ~kind:(if active then Flight.Kind.Fault_on else Flight.Kind.Fault_off)
        ~a:(Flight.intern t.flight label) ~b:0 ~v:0.0
  end

let fault_log t =
  List.rev_map (fun e -> (e.f_time, e.f_label, e.f_active)) t.faults_rev

(* Pair start/stop marks into windows, oldest-first.  A start without a
   matching stop yields an open window ([None] end); a stop without a
   start is ignored (defensive — the injector always emits pairs). *)
let fault_windows t =
  let events = fault_log t in
  let open_w : (string * Time.t) list ref = ref [] in
  let closed = ref [] in
  List.iter
    (fun (time, label, active) ->
      if active then open_w := !open_w @ [ (label, time) ]
      else
        let rec take acc = function
          | [] -> None
          | (l, t0) :: rest when l = label -> Some ((l, t0), List.rev_append acc rest)
          | x :: rest -> take (x :: acc) rest
        in
        match take [] !open_w with
        | Some ((l, t0), rest) ->
          open_w := rest;
          closed := (l, t0, Some time) :: !closed
        | None -> ())
    events;
  let still_open = List.map (fun (l, t0) -> (l, t0, None)) !open_w in
  List.sort
    (fun (_, a, _) (_, b, _) -> Time.compare a b)
    (List.rev_append !closed still_open)

let faults_report t =
  let ws = fault_windows t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "== injected faults (%d windows) ==\n" (List.length ws));
  List.iter
    (fun (label, t0, t1) ->
      match t1 with
      | Some t1 ->
        Buffer.add_string buf
          (Printf.sprintf "%10.3fms .. %10.3fms  %s\n" (Time.to_float_ms t0)
             (Time.to_float_ms t1) label)
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "%10.3fms .. (open)       %s\n" (Time.to_float_ms t0) label))
    ws;
  Buffer.contents buf

(* ---------------- reports ---------------- *)

let metrics_report t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== telemetry metrics (%d metrics) ==\n" (Hashtbl.length t.metrics));
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.metrics name with
      | None -> ()
      | Some (Counter c) -> Buffer.add_string buf (Printf.sprintf "%-34s %14.1f\n" name c.value)
      | Some (Gauge g) -> Buffer.add_string buf (Printf.sprintf "%-34s %14.1f\n" name (g ()))
      | Some (Hist h) ->
        Buffer.add_string buf
          (Printf.sprintf "%-34s n=%-9d mean=%.1fus p95=%.1fus p99=%.1fus\n" name
             (Hdr_histogram.count h) (Hdr_histogram.mean_us h)
             (Hdr_histogram.percentile_us h 95.0)
             (Hdr_histogram.percentile_us h 99.0)))
    (metric_names t);
  Buffer.contents buf

(* The scheduler's Algorithm-1 decisions, as recorded in the attached
   flight ring (a = tenant, b = thread). *)
let is_decision = function
  | Flight.Kind.Throttle | Flight.Kind.Deficit | Flight.Kind.Donate | Flight.Kind.Bucket_take
  | Flight.Kind.Idle_drain | Flight.Kind.Bucket_reset ->
    true
  | _ -> false

let decisions_report ?(limit = 40) t =
  let total = ref 0 in
  Flight.iter t.flight (fun ~time:_ ~kind ~a:_ ~b:_ ~v:_ ->
      if is_decision kind then Stdlib.incr total);
  let total = !total in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== scheduler decision log (%d retained, showing last %d) ==\n" total
       (min limit total));
  let skip = total - limit in
  let i = ref 0 in
  Flight.iter t.flight (fun ~time ~kind ~a ~b ~v ->
      if is_decision kind then begin
        if !i >= skip then
          Buffer.add_string buf
            (Printf.sprintf "%10.3fms thread%d tenant%-5d %-12s v=%10.1f\n"
               (Time.to_float_ms time) b a (Flight.Kind.name kind) v);
        Stdlib.incr i
      end);
  Buffer.contents buf
