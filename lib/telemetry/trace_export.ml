open Reflex_engine

(* Turn the raw span ring into per-request views:
   - Chrome trace_event JSON (load in about://tracing or Perfetto);
   - a per-request latency breakdown whose seven components telescope
     exactly to the end-to-end latency;
   - an aggregate per-component summary.

   Requests are keyed by the (tenant, req_id) pair — req_ids are only
   unique per tenant/connection. *)

type request = {
  r_tenant : int;
  r_req_id : int;
  r_stamps : Time.t array; (* Stage.count entries; [not_seen] = stage not seen *)
}

let not_seen = Time.ns (-1)
let add_json_string = Reflex_obs.Flight_dump.add_json_string
let us = Reflex_obs.Flight_dump.us

(* Insertion-ordered collection: ring iteration is oldest-first, so the
   resulting request list is ordered by first-seen stage, which makes all
   downstream reports deterministic. *)
let requests tel =
  let order : (int * int) list ref = ref [] in
  let by_key : (int * int, request) Hashtbl.t = Hashtbl.create 1024 in
  Telemetry.iter_spans tel (fun ~time ~tenant ~req_id ~stage ->
      let key = (tenant, req_id) in
      let r =
        match Hashtbl.find_opt by_key key with
        | Some r -> r
        | None ->
          let r =
            { r_tenant = tenant; r_req_id = req_id;
              r_stamps = Array.make Telemetry.Stage.count not_seen }
          in
          Hashtbl.replace by_key key r;
          order := key :: !order;
          r
      in
      r.r_stamps.(Telemetry.Stage.to_int stage) <- time);
  List.rev_map (Hashtbl.find by_key) !order

(* A request is usable for breakdowns when every stage was stamped and the
   stamps are monotone (a request whose early spans were overwritten by
   ring wraparound fails the first check). *)
let complete r =
  let ok = ref true in
  Array.iter (fun s -> if Time.(s < zero) then ok := false) r.r_stamps;
  if !ok then
    for i = 0 to Telemetry.Stage.count - 2 do
      if Time.(r.r_stamps.(i + 1) < r.r_stamps.(i)) then ok := false
    done;
  !ok

type breakdown = {
  b_tenant : int;
  b_req_id : int;
  b_start : Time.t;
  b_total : Time.t; (* end-to-end client latency *)
  b_components : Time.t array; (* Stage.component_count entries; sums to b_total *)
}

let breakdown_of_request r =
  let n = Telemetry.Stage.component_count in
  let comps = Array.make n Time.zero in
  for i = 0 to n - 1 do
    comps.(i) <- Time.diff r.r_stamps.(i + 1) r.r_stamps.(i)
  done;
  {
    b_tenant = r.r_tenant;
    b_req_id = r.r_req_id;
    b_start = r.r_stamps.(0);
    b_total = Time.diff r.r_stamps.(Telemetry.Stage.count - 1) r.r_stamps.(0);
    b_components = comps;
  }

let breakdowns tel = List.filter complete (requests tel) |> List.map breakdown_of_request

(* ------------------------------------------------------------------ *)
(* Plain-text reports                                                 *)
(* ------------------------------------------------------------------ *)

let breakdown_report ?(top = 10) tel =
  let bds = breakdowns tel in
  let n = List.length bds in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "== per-request latency breakdown (%d complete requests; top %d by latency) ==\n"
       n (min top n));
  Buffer.add_string buf (Printf.sprintf "%-8s %-10s %10s |" "tenant" "req" "total_us");
  Array.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf " %12s" c))
    Telemetry.Stage.component_names;
  Buffer.add_char buf '\n';
  let worst =
    List.sort (fun a b -> compare b.b_total a.b_total) bds |> fun l ->
    List.filteri (fun i _ -> i < top) l
  in
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "t%-7d %-10d %10.2f |" b.b_tenant b.b_req_id (Time.to_float_us b.b_total));
      Array.iter
        (fun c -> Buffer.add_string buf (Printf.sprintf " %12.2f" (Time.to_float_us c)))
        b.b_components;
      Buffer.add_char buf '\n')
    worst;
  Buffer.contents buf

type component_stat = {
  cs_name : string;
  cs_mean_us : float;
  cs_p95_us : float;
  cs_max_us : float;
  cs_share : float; (* fraction of total end-to-end time spent here *)
}

let component_summary tel =
  let bds = breakdowns tel in
  let n = Telemetry.Stage.component_count in
  let sums = Array.make n 0.0 in
  let maxs = Array.make n 0.0 in
  let hists = Array.init n (fun _ -> Reflex_stats.Hdr_histogram.create ()) in
  let total = ref 0.0 in
  List.iter
    (fun b ->
      total := !total +. Time.to_float_us b.b_total;
      Array.iteri
        (fun i c ->
          let c_us = Time.to_float_us c in
          sums.(i) <- sums.(i) +. c_us;
          if c_us > maxs.(i) then maxs.(i) <- c_us;
          Reflex_stats.Hdr_histogram.record hists.(i) (c : Time.t :> int))
        b.b_components)
    bds;
  let count = List.length bds in
  Array.init n (fun i ->
      {
        cs_name = Telemetry.Stage.component_names.(i);
        cs_mean_us = (if count = 0 then 0.0 else sums.(i) /. float_of_int count);
        cs_p95_us = Reflex_stats.Hdr_histogram.percentile_us hists.(i) 95.0;
        cs_max_us = maxs.(i);
        cs_share = (if !total <= 0.0 then 0.0 else sums.(i) /. !total);
      })

let component_report tel =
  let stats = component_summary tel in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== latency component summary (complete requests) ==\n";
  Buffer.add_string buf
    (Printf.sprintf "%-14s %12s %12s %12s %8s\n" "component" "mean_us" "p95_us" "max_us" "share");
  Array.iter
    (fun cs ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %12.2f %12.2f %12.2f %7.1f%%\n" cs.cs_name cs.cs_mean_us cs.cs_p95_us
           cs.cs_max_us (100.0 *. cs.cs_share)))
    stats;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Causal span trees                                                  *)
(* ------------------------------------------------------------------ *)

(* Chain Follows_from links into per-root attempt chains: each chain is
   [(tenant, [req_id of attempt 0; attempt 1; ...])].  Links are rare
   (one per client retry), so the list walk is fine. *)
let retry_chains tel =
  let links =
    List.filter
      (fun (_, kind, _, _) -> kind = Telemetry.Follows_from)
      (Telemetry.links tel)
  in
  let next = Hashtbl.create 16 and is_dst = Hashtbl.create 16 in
  List.iter
    (fun (_, _, src, dst) ->
      Hashtbl.replace next src dst;
      Hashtbl.replace is_dst dst ())
    links;
  (* Roots in link-record order (chronological, hence deterministic). *)
  links
  |> List.filter_map (fun (_, _, src, _) ->
         if Hashtbl.mem is_dst src then None
         else
           let rec follow key acc =
             match Hashtbl.find_opt next key with
             | Some dst -> follow dst (snd dst :: acc)
             | None -> List.rev acc
           in
           let tenant, root = src in
           Some (tenant, follow src [ root ]))

let retry_tree_report ?(top = 20) tel =
  let chains = retry_chains tel in
  let n = List.length chains in
  let longest = List.fold_left (fun acc (_, reqs) -> max acc (List.length reqs)) 0 chains in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== retry span trees (%d chains, longest %d attempts; first %d) ==\n" n
       longest (min top n));
  List.iteri
    (fun i (tenant, reqs) ->
      if i < top then
        Buffer.add_string buf
          (Printf.sprintf "t%-4d %d attempts: %s\n" tenant (List.length reqs)
             (String.concat " ~> " (List.map string_of_int reqs))))
    chains;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                            *)
(* ------------------------------------------------------------------ *)

(* One complete "X" (duration) event per latency component, plus an
   instant event per raw span so incomplete requests still show up.
   pid = tenant id, tid = dataplane-visible request id.  Chrome expects
   [ts]/[dur] in microseconds (floats allowed). *)

(* Latest timestamp observed anywhere in the telemetry — closes fault
   windows that are still open when the trace is exported. *)
let last_time tel =
  let t = ref Time.zero in
  let see x = if Time.(x > !t) then t := x in
  Telemetry.iter_spans tel (fun ~time ~tenant:_ ~req_id:_ ~stage:_ -> see time);
  List.iter (fun (time, _, _) -> see time) (Telemetry.fault_log tel);
  List.iter (fun (time, _, _, _) -> see time) (Telemetry.links tel);
  List.iter (fun (time, _, _) -> see time) (Telemetry.remediation_log tel);
  !t

let to_chrome_json ?(extra = []) tel =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ','
  in
  (* Duration events: one per component of each complete request. *)
  List.iter
    (fun b ->
      let t = ref b.b_start in
      Array.iteri
        (fun i c ->
          sep ();
          Buffer.add_string buf "{\"name\":";
          add_json_string buf Telemetry.Stage.component_names.(i);
          Buffer.add_string buf ",\"cat\":\"request\",\"ph\":\"X\",\"ts\":";
          Buffer.add_string buf (us !t);
          Buffer.add_string buf ",\"dur\":";
          Buffer.add_string buf (us c);
          Buffer.add_string buf
            (Printf.sprintf ",\"pid\":%d,\"tid\":%d,\"args\":{\"req\":%d}}" b.b_tenant b.b_req_id
               b.b_req_id);
          t := Time.add !t c)
        b.b_components)
    (breakdowns tel);
  (* Instant events: every raw span, so wrap-truncated requests are still
     visible on the timeline. *)
  Telemetry.iter_spans tel (fun ~time ~tenant ~req_id ~stage ->
      sep ();
      Buffer.add_string buf "{\"name\":";
      add_json_string buf (Telemetry.Stage.name stage);
      Buffer.add_string buf ",\"cat\":\"span\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      Buffer.add_string buf (us time);
      Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d}" tenant req_id));
  (* Injected-fault windows as duration events on a dedicated row
     (pid 0 / tid 0, cat "fault"), so latency spikes in the viewer line
     up visually with the fault that caused them.  A window still open at
     export time is closed at the latest observed timestamp. *)
  (match Telemetry.fault_windows tel with
  | [] -> ()
  | windows ->
    let close = last_time tel in
    List.iter
      (fun (label, t0, t1) ->
        let t1 = match t1 with Some t1 -> t1 | None -> Time.max t0 close in
        sep ();
        Buffer.add_string buf "{\"name\":";
        add_json_string buf label;
        Buffer.add_string buf ",\"cat\":\"fault\",\"ph\":\"X\",\"ts\":";
        Buffer.add_string buf (us t0);
        Buffer.add_string buf ",\"dur\":";
        Buffer.add_string buf (us (Time.diff t1 t0));
        Buffer.add_string buf ",\"pid\":0,\"tid\":0,\"args\":{\"fault\":";
        add_json_string buf label;
        Buffer.add_string buf "}}")
      windows);
  (* Causal links as Chrome flow events: a ["ph":"s"] start anchored at
     the source request's row and a matching ["ph":"f"] finish on the
     destination's, sharing one flow id, so retry chains and remediation
     causality render as arrows between the linked spans. *)
  List.iteri
    (fun id (time, kind, src, dst) ->
      let name =
        match kind with
        | Telemetry.Follows_from -> "retry"
        | Telemetry.Child_of -> "child"
      in
      let src_tenant, src_req = src in
      let dst_tenant, dst_req = dst in
      let ts = us time in
      sep ();
      Buffer.add_string buf "{\"name\":";
      add_json_string buf name;
      Buffer.add_string buf
        (Printf.sprintf ",\"cat\":\"link\",\"ph\":\"s\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
           id ts src_tenant src_req);
      sep ();
      Buffer.add_string buf "{\"name\":";
      add_json_string buf name;
      Buffer.add_string buf
        (Printf.sprintf
           ",\"cat\":\"link\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
           id ts dst_tenant dst_req))
    (Telemetry.links tel);
  (* Remediation applications as instants on the fault/alert row. *)
  List.iter
    (fun (time, rule, outcome) ->
      sep ();
      Buffer.add_string buf "{\"name\":";
      add_json_string buf ("remediate:" ^ rule);
      Buffer.add_string buf
        (Printf.sprintf ",\"cat\":\"remediation\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%s,\"pid\":0,\"tid\":0,\"args\":{\"outcome\":"
           (us time));
      add_json_string buf outcome;
      Buffer.add_string buf "}}")
    (Telemetry.remediation_log tel);
  (* Caller-supplied events (e.g. lib/monitor's alert-timeline instants):
     each element must be one complete JSON trace_event object. *)
  List.iter
    (fun frag ->
      sep ();
      Buffer.add_string buf frag)
    extra;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_chrome_json ?extra tel path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ?extra tel))
