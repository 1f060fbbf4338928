open Reflex_engine

(* SLO auditor: cross-reference the per-request breakdowns with the
   per-tenant SLO targets registered at tenant admission, and attribute
   each violation to the latency component that dominated it.  This is
   the answer to "the p95 blew the SLO — was it NIC queueing, token
   starvation, or die contention?" *)

type violation = {
  v_tenant : int;
  v_req_id : int;
  v_time : Time.t; (* completion time *)
  v_total : Time.t;
  v_slo : Time.t;
  v_dominant : int; (* index into Stage.component_names *)
  v_dominant_frac : float; (* dominant component / total *)
}

let dominant_component (b : Trace_export.breakdown) =
  let best = ref 0 in
  Array.iteri
    (fun i c -> if c > b.Trace_export.b_components.(!best) then best := i)
    b.Trace_export.b_components;
  !best

let violations tel =
  List.filter_map
    (fun (b : Trace_export.breakdown) ->
      match Telemetry.tenant_slo tel ~tenant:b.b_tenant with
      | Some (true, latency_us) ->
        let slo = Time.us latency_us in
        if Time.(b.b_total > slo) then begin
          let d = dominant_component b in
          let total_us = Time.to_float_us b.b_total in
          Some
            {
              v_tenant = b.b_tenant;
              v_req_id = b.b_req_id;
              v_time = Time.add b.b_start b.b_total;
              v_total = b.b_total;
              v_slo = slo;
              v_dominant = d;
              v_dominant_frac =
                (if total_us <= 0.0 then 0.0
                 else Time.to_float_us b.b_components.(d) /. total_us);
            }
        end
        else None
      | Some (false, _) | None -> None)
    (Trace_export.breakdowns tel)

type window = {
  w_start : Time.t;
  w_tenant : int;
  w_count : int;
  w_worst_us : float;
  w_dominant : int; (* most frequent dominant component in the window *)
}

(* Bucket violations into fixed windows per tenant; within each window the
   reported dominant component is the most frequent per-request dominant. *)
let windows ?(window = Time.ms 10) tel =
  if Time.(window <= Time.zero) then invalid_arg "Slo_audit.windows: non-positive window";
  let tbl : (int * int, int * float * int array) Hashtbl.t = Hashtbl.create 64 in
  let window_ns = (window : Time.t :> int) in
  List.iter
    (fun v ->
      let slot = (v.v_time : Time.t :> int) / window_ns in
      let key = (v.v_tenant, slot) in
      let count, worst, doms =
        match Hashtbl.find_opt tbl key with
        | Some x -> x
        | None -> (0, 0.0, Array.make Telemetry.Stage.component_count 0)
      in
      doms.(v.v_dominant) <- doms.(v.v_dominant) + 1;
      let worst = Stdlib.max worst (Time.to_float_us v.v_total) in
      Hashtbl.replace tbl key (count + 1, worst, doms))
    (violations tel);
  Hashtbl.fold
    (fun (tenant, slot) (count, worst, doms) acc ->
      let dominant = ref 0 in
      Array.iteri (fun i n -> if n > doms.(!dominant) then dominant := i) doms;
      {
        w_start = Time.ns (slot * window_ns);
        w_tenant = tenant;
        w_count = count;
        w_worst_us = worst;
        w_dominant = !dominant;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Time.compare a.w_start b.w_start with
         | 0 -> compare a.w_tenant b.w_tenant
         | c -> c)

type tenant_summary = {
  ts_tenant : int;
  ts_slo_us : int;
  ts_requests : int; (* complete traced requests *)
  ts_violations : int;
  ts_worst_us : float;
  ts_dominant : int option; (* across all violations; None when compliant *)
}

let tenant_summaries tel =
  let vs = violations tel in
  let bds = Trace_export.breakdowns tel in
  List.filter_map
    (fun tenant ->
      match Telemetry.tenant_slo tel ~tenant with
      | Some (true, latency_us) ->
        let mine = List.filter (fun v -> v.v_tenant = tenant) vs in
        let doms = Array.make Telemetry.Stage.component_count 0 in
        let worst = ref 0.0 in
        List.iter
          (fun v ->
            doms.(v.v_dominant) <- doms.(v.v_dominant) + 1;
            worst := Stdlib.max !worst (Time.to_float_us v.v_total))
          mine;
        let dominant =
          if mine = [] then None
          else begin
            let best = ref 0 in
            Array.iteri (fun i n -> if n > doms.(!best) then best := i) doms;
            Some !best
          end
        in
        Some
          {
            ts_tenant = tenant;
            ts_slo_us = latency_us;
            ts_requests =
              List.length
                (List.filter (fun (b : Trace_export.breakdown) -> b.b_tenant = tenant) bds);
            ts_violations = List.length mine;
            ts_worst_us = !worst;
            ts_dominant = dominant;
          }
      | _ -> None)
    (Telemetry.tenants_with_slo tel)

(* Labels of injected faults whose window overlaps [start, stop).  An
   open fault window (no stop mark yet) overlaps everything after its
   start. *)
let overlapping_faults tel ~start ~stop =
  List.filter_map
    (fun (label, f0, f1) ->
      let ends_after = match f1 with None -> true | Some f1 -> Time.(f1 > start) in
      if Time.(f0 < stop) && ends_after then Some label else None)
    (Telemetry.fault_windows tel)

let report ?window:(w = Time.ms 10) tel =
  let buf = Buffer.create 2048 in
  let summaries = tenant_summaries tel in
  Buffer.add_string buf "== SLO audit ==\n";
  if summaries = [] then Buffer.add_string buf "no latency-critical tenants registered\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-8s %8s %9s %11s %10s  %s\n" "tenant" "slo_us" "requests" "violations"
         "worst_us" "dominant");
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "t%-7d %8d %9d %11d %10.1f  %s\n" s.ts_tenant s.ts_slo_us s.ts_requests
             s.ts_violations s.ts_worst_us
             (match s.ts_dominant with
             | None -> "-"
             | Some d -> Telemetry.Stage.component_names.(d))))
      summaries;
    let ws = windows ~window:w tel in
    let have_faults = Telemetry.fault_windows tel <> [] in
    if ws <> [] then begin
      Buffer.add_string buf
        (Printf.sprintf "-- violation windows (%.1fms) --\n" (Time.to_float_ms w));
      Buffer.add_string buf
        (Printf.sprintf "%-10s %-8s %6s %10s  %-14s %s\n" "t_ms" "tenant" "count" "worst_us"
           "dominant"
           (if have_faults then "faults" else ""));
      List.iter
        (fun win ->
          let faults =
            if not have_faults then ""
            else
              match
                overlapping_faults tel ~start:win.w_start ~stop:(Time.add win.w_start w)
              with
              | [] -> "-"
              | labels -> String.concat "," labels
          in
          Buffer.add_string buf
            (Printf.sprintf "%-10.1f t%-7d %6d %10.1f  %-14s %s\n" (Time.to_float_ms win.w_start)
               win.w_tenant win.w_count win.w_worst_us
               Telemetry.Stage.component_names.(win.w_dominant)
               faults))
        ws
    end;
    if have_faults then Buffer.add_string buf (Telemetry.faults_report tel)
  end;
  Buffer.contents buf
