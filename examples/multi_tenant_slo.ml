(* Multi-tenant isolation demo (the Figure 5 scenario in miniature):

   A latency-critical tenant with a 500us p95 SLO shares device A with a
   best-effort tenant flooding writes.  Run once with the QoS scheduler
   and once without, and compare the LC tenant's tail latency.  The
   QoS-on run is executed with the telemetry layer enabled, so after the
   comparison we print the SLO auditor's verdict: which requests (if
   any) still broke the SLO, and which latency component — NIC queueing,
   scheduler token wait, or flash die contention — dominated each
   violation.

     dune exec examples/multi_tenant_slo.exe *)

open Reflex_engine
open Reflex_proto
open Reflex_client
open Reflex_telemetry

let run ~qos ~telemetry =
  let sim = Sim.create () in
  let fabric = Reflex_net.Fabric.create sim () in
  let server = Reflex_core.Server.create sim ~fabric ~qos ~telemetry () in
  let connect () =
    Client_lib.connect sim fabric
      ~server_host:(Reflex_core.Server.host server)
      ~accept:(Reflex_core.Server.accept server)
      ~stack:Reflex_net.Stack_model.ix_client ~telemetry ()
  in
  let lc = connect () and be = connect () in
  Client_lib.register lc ~tenant:1
    ~slo:{ Message.latency_us = 500; iops = 80_000; read_pct = 100; latency_critical = true }
    (fun _ -> ());
  Client_lib.register be ~tenant:2
    ~slo:{ Message.latency_us = 0; iops = 0; read_pct = 0; latency_critical = false }
    (fun _ -> ());
  ignore (Sim.run sim);
  let until = Time.add (Sim.now sim) (Time.ms 300) in
  (* LC tenant: paced reads at its reservation. *)
  let lc_gen =
    Load_gen.open_loop sim ~client:lc ~pacing:`Cbr ~rate:80_000.0 ~read_ratio:1.0 ~bytes:4096
      ~until ()
  in
  (* BE tenant: an aggressive writer keeping 128 writes outstanding. *)
  let be_gen =
    Load_gen.closed_loop sim ~client:be ~depth:128 ~read_ratio:0.0 ~bytes:4096 ~until ~seed:7L ()
  in
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 100)) sim);
  Load_gen.mark_measurement_start lc_gen;
  Load_gen.mark_measurement_start be_gen;
  ignore (Sim.run ~until sim);
  (Load_gen.p95_read_us lc_gen, Load_gen.achieved_iops lc_gen, Load_gen.achieved_iops be_gen)

let () =
  Printf.printf "LC tenant: 80K read IOPS reserved, p95 SLO 500us.\n";
  Printf.printf "BE tenant: write flood, 128 outstanding.\n\n";
  let p95_off, lc_off, be_off = run ~qos:false ~telemetry:Telemetry.disabled in
  Printf.printf "QoS scheduler OFF: LC p95 = %7.0fus (SLO %s)  LC %.0fK IOPS, BE writes %.0fK IOPS\n"
    p95_off
    (if p95_off <= 500.0 then "met" else "VIOLATED")
    (lc_off /. 1e3) (be_off /. 1e3);
  let tel = Telemetry.create () in
  let p95_on, lc_on, be_on = run ~qos:true ~telemetry:tel in
  Printf.printf "QoS scheduler ON : LC p95 = %7.0fus (SLO %s)  LC %.0fK IOPS, BE writes %.0fK IOPS\n"
    p95_on
    (if p95_on <= 500.0 then "met" else "VIOLATED")
    (lc_on /. 1e3) (be_on /. 1e3);
  Printf.printf
    "\nWith the scheduler on, best-effort writes are rate-limited to the device's\n\
     spare tokens and the latency-critical tenant keeps its tail latency SLO.\n\n";
  (* The telemetry layer traced every request of the QoS-on run; ask the
     SLO auditor where the remaining tail latency was spent. *)
  print_string (Trace_export.component_report tel);
  print_newline ();
  print_string (Slo_audit.report tel)
