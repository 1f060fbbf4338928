open Reflex_engine
open Reflex_client
open Reflex_telemetry
open Reflex_faults
open Reflex_monitor
module Flight = Reflex_obs.Flight
module Profiler = Reflex_obs.Profiler

(* Observability acceptance scenario: the chaos world (two dataplane
   threads, two LC tenants with retries, two BE write floods, scripted
   fault plan) with the full lib/obs stack armed —

   - the always-on flight recorder, attached before the world is built
     so the scheduler round and dataplane cycle record into it;
   - the monitor, whose fired alerts freeze forensic flight dumps;
   - the continuous cost profiler, with the whole [Sim.run] loop scoped
     under the Engine bucket.

   The deterministic render covers the fault plan, the monitor report
   (including the dump summary), the retry span trees reconstructed
   from the client's Follows_from links, and the digest of the first
   dump's JSON debrief.  Profiler output is host wall time and is kept
   strictly out of the render — [profile_report] exposes it separately
   for the CLI.

   [debrief] re-runs the scenario and asserts the first dump (trigger
   alert, fault windows, every record) is byte-identical across a
   same-seed rerun, serial vs [Runner --jobs 2], and heap vs wheel
   event backends, and that a run with a present-but-disarmed recorder
   ([Flight.create ~enabled:false]) renders identically to one with no
   recorder attached at all. *)

let scale_of = function Common.Quick -> 0.1 | Common.Full -> 1.0
let interval = Time.ms 1

let obs_retry =
  Retry.validate
    {
      Retry.timeout = Time.ms 20;
      max_retries = 2;
      backoff_base = Time.ms 1;
      backoff_mult = 4.0;
      backoff_max = Time.ms 20;
      jitter = 0.2;
    }

type result = {
  monitor : Monitor.t;
  telemetry : Telemetry.t;
  profiler : Profiler.t;
  plan : Fault_plan.t;
  retries : int;  (** summed client re-issues *)
  digest : string;  (** server counters + per-generator stats *)
}

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* [flight = `Armed] attaches a live recorder, [`Inert] a created-but-
   disabled one, [`None] leaves the shared disabled instance — the last
   two must produce byte-identical renders. *)
let run ?(mode = Common.Quick) ?(seed = 42L) ?(flight = `Armed) ?(profile = false) () =
  let scale = scale_of mode in
  let telemetry = Telemetry.create ~span_capacity:(1 lsl 19) () in
  (match flight with
  | `Armed -> Telemetry.set_flight telemetry (Flight.create ())
  | `Inert -> Telemetry.set_flight telemetry (Flight.create ~enabled:false ())
  | `None -> ());
  let profiler = if profile then Profiler.create () else Profiler.disabled in
  if profile then Telemetry.set_profiler telemetry profiler;
  let w = Common.make_reflex ~n_threads:2 ~telemetry ~seed () in
  let sim = w.Common.sim in
  let plan = Fault_plan.scripted ~scale () in
  let timeline = Time.scale (Time.sec 10) scale in
  let monitor =
    Monitor.create ~interval ~capacity:4096 ~target:0.99 ~burn_short:(2, 10.0)
      ~burn_long:(10, 5.0) ~z_thresh:3.0 ~cooldown:(Time.ms 50)
      ~fault_lookback:(Time.scale (Time.sec 1) scale) ~dump_window:(Time.ms 5)
      ~server:w.Common.server ~telemetry ()
  in
  Monitor.start monitor sim ();
  let lc_specs =
    [ (1, 500, 150_000, 100, 20_000.0, 1.0); (2, 1000, 75_000, 90, 10_000.0, 0.9) ]
  in
  let lc =
    List.map
      (fun (tenant, latency_us, iops, read_pct, rate, read_ratio) ->
        let client =
          Common.client_of w
            ~slo:(Common.lc_slo ~latency_us ~iops ~read_pct)
            ~retry:obs_retry
            ~retry_seed:(Int64.add seed (Int64.of_int (1000 + tenant)))
            ~tenant ()
        in
        let g =
          Load_gen.open_loop sim ~client ~pacing:`Cbr ~mix:`Deterministic ~rate ~read_ratio
            ~bytes:4096 ~until:timeline
            ~seed:(Int64.add seed (Int64.of_int (17 + tenant)))
            ()
        in
        (tenant, client, g))
      lc_specs
  in
  let be =
    List.init 2 (fun i ->
        let tenant = 101 + i in
        let client = Common.client_of w ~slo:(Common.be_slo ~read_pct:10 ()) ~tenant () in
        let g =
          Load_gen.closed_loop sim ~client ~depth:32 ~read_ratio:0.1 ~bytes:4096
            ~until:timeline
            ~seed:(Int64.add seed (Int64.of_int (91 + i)))
            ()
        in
        (tenant, client, g))
  in
  let gens = List.map (fun (_, _, g) -> g) (lc @ be) in
  let tgt =
    Injector.target ~sim ~fabric:w.Common.fabric ~server:w.Common.server
      ~gens:(Array.of_list gens) ~telemetry ()
  in
  ignore (Injector.arm ~seed:(Int64.add seed 7L) tgt ~plan);
  Profiler.enter profiler Profiler.Subsystem.Engine;
  ignore (Sim.run ~until:timeline sim);
  ignore (Sim.run sim);
  Profiler.leave profiler Profiler.Subsystem.Engine;
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "completed=%d tokens=%.3f threads=%d\n"
       (Reflex_core.Server.requests_completed w.Common.server)
       (Reflex_core.Server.tokens_spent w.Common.server)
       (Reflex_core.Server.active_threads w.Common.server));
  List.iter
    (fun (tenant, _, g) ->
      Buffer.add_string buf
        (Printf.sprintf "t%d issued=%d iops=%.1f p95r=%.2f\n" tenant (Load_gen.issued g)
           (Load_gen.achieved_iops g) (Load_gen.p95_read_us g)))
    (lc @ be);
  {
    monitor;
    telemetry;
    profiler;
    plan;
    retries = List.fold_left (fun acc (_, c, _) -> acc + Client_lib.retries c) 0 lc;
    digest = Buffer.contents buf;
  }

(* {1 Views over one run} *)

let dumps r = Monitor.flight_dumps r.monitor

let first_debrief r =
  match dumps r with [] -> None | d :: _ -> Some (Monitor.dump_debrief d)

let first_chrome r =
  match dumps r with [] -> None | d :: _ -> Some (Monitor.dump_chrome_json d)

(* {1 Acceptance checks} *)

let dump_captured r =
  match dumps r with
  | [] -> false
  | d :: _ -> Flight.snap_length d.Monitor.d_snapshot > 0

(* The debrief must name its trigger alert and carry the fault windows
   active around it. *)
let dump_names_alert r =
  match dumps r with
  | [] -> false
  | d :: _ ->
    let j = Monitor.dump_debrief d in
    d.Monitor.d_rule <> "" && contains_sub j d.Monitor.d_rule
    && contains_sub j "\"trigger\":{"

let dump_names_fault r =
  match first_debrief r with
  | None -> false
  | Some j ->
    List.exists (fun (w : Fault_plan.window) -> contains_sub j (Fault_plan.label w.fault)) r.plan

let links_recorded r = r.retries = 0 || Telemetry.links r.telemetry <> []

(* {1 Render} *)

let render_result r =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Fault_plan.to_string r.plan);
  Buffer.add_string buf (Monitor.report r.monitor);
  Buffer.add_string buf (Trace_export.retry_tree_report r.telemetry);
  Buffer.add_string buf (Printf.sprintf "client retries: %d\n" r.retries);
  (match first_debrief r with
  | None -> Buffer.add_string buf "flight dump: NONE\n"
  | Some j ->
    Buffer.add_string buf
      (Printf.sprintf "flight dump: %d bytes, md5 %s\n" (String.length j)
         (Digest.to_hex (Digest.string j))));
  Buffer.add_string buf "acceptance:\n";
  let check name v =
    Buffer.add_string buf (Printf.sprintf "  %-44s %s\n" name (if v then "PASS" else "FAIL"))
  in
  check "alert-triggered flight dump captured" (dump_captured r);
  check "dump names its trigger alert" (dump_names_alert r);
  check "dump carries the active fault window" (dump_names_fault r);
  check "retry attempts linked into span trees" (links_recorded r);
  Buffer.contents buf

let render ?mode ?seed () = render_result (run ?mode ?seed ())

let ok r = dump_captured r && dump_names_alert r && dump_names_fault r && links_recorded r

(* {1 Determinism debrief} *)

let debrief ?(mode = Common.Quick) ?(seed = 42L) () =
  let base = run ~mode ~seed () in
  let base_render = render_result base in
  let base_dump = Option.value ~default:"" (first_debrief base) in
  let again = run ~mode ~seed () in
  let par =
    Runner.map ~jobs:2
      (fun s ->
        let r = run ~mode ~seed:s () in
        (render_result r, Option.value ~default:"" (first_debrief r)))
      [ seed; seed ]
  in
  let heap = Sim.with_default_backend Sim.Heap (fun () -> run ~mode ~seed ()) in
  let wheel = Sim.with_default_backend Sim.Wheel (fun () -> run ~mode ~seed ()) in
  let inert = run ~mode ~seed ~flight:`Inert () in
  let bare = run ~mode ~seed ~flight:`None () in
  let rerun_ok =
    String.equal base_render (render_result again)
    && String.equal base_dump (Option.value ~default:"" (first_debrief again))
  in
  let par_ok =
    List.for_all (fun (rr, dd) -> String.equal base_render rr && String.equal base_dump dd) par
  in
  let backend_ok =
    String.equal (render_result heap) (render_result wheel)
    && String.equal
         (Option.value ~default:"" (first_debrief heap))
         (Option.value ~default:"" (first_debrief wheel))
  in
  let inert_ok =
    String.equal (render_result inert) (render_result bare)
    && String.equal inert.digest bare.digest
  in
  let armed_inert_ok = String.equal base.digest inert.digest in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf base_render;
  Buffer.add_string buf "determinism:\n";
  Buffer.add_string buf (Printf.sprintf "  same-seed rerun dump byte-identical: %b\n" rerun_ok);
  Buffer.add_string buf (Printf.sprintf "  serial vs --jobs 2 dump byte-identical: %b\n" par_ok);
  Buffer.add_string buf (Printf.sprintf "  heap vs wheel dump byte-identical: %b\n" backend_ok);
  Buffer.add_string buf
    (Printf.sprintf "  disarmed recorder render == no recorder: %b\n" inert_ok);
  Buffer.add_string buf
    (Printf.sprintf "  armed recorder leaves world digest unchanged: %b\n" armed_inert_ok);
  let all = ok base && rerun_ok && par_ok && backend_ok && inert_ok && armed_inert_ok in
  Buffer.add_string buf (if all then "OBS OK\n" else "OBS FAILED\n");
  Buffer.contents buf

(* {1 Profiler view (host wall time — never part of the render)} *)

let profile_report r = Profiler.report r.profiler
