(* Command-line driver: run any paper experiment by id.

     reflex_sim list
     reflex_sim run fig5 [--full] [--telemetry]
     reflex_sim run all  [--full]
     reflex_sim trace    [--full] [--out FILE] [--audit-window-us US]
     reflex_sim chaos    [--full] [--seed N] [--no-verify] [--audit-window-us US]
     reflex_sim monitor  [--full] [--seed N] [--no-verify] [--flight-dump FILE]
     reflex_sim obs      [--full] [--seed N] [--no-verify] [--flight-dump FILE]
                         [--dump-json FILE]
     reflex_sim rack     [--full] [--seed N] [--no-verify]

   run/trace/chaos/monitor/obs/rack all take [--backend heap|wheel]
   (wheel is the default; output is byte-identical either way) and the
   shared [--prom-out FILE] / [--trace-out FILE] observability outputs. *)

open Cmdliner
open Reflex_experiments
open Reflex_telemetry
module Monitor = Reflex_monitor.Monitor
module Prom_export = Reflex_monitor.Prom_export

let experiments : (string * string * (Common.mode -> unit)) list =
  [
    ( "fig1",
      "p95 read latency vs IOPS per read/write ratio (device A)",
      fun mode -> Reflex_stats.Table.print (Fig1.to_table (Fig1.run ~mode ())) );
    ( "fig3",
      "request cost models and calibration fits for devices A/B/C",
      fun mode -> List.iter Reflex_stats.Table.print (Fig3.to_tables (Fig3.run ~mode ())) );
    ( "table2",
      "unloaded 4KB latency across the six access paths",
      fun mode -> Reflex_stats.Table.print (Table2.to_table (Table2.run ~mode ())) );
    ( "fig4",
      "latency vs throughput, 1KB reads: Local/ReFlex/Libaio x 1/2 threads",
      fun mode -> Reflex_stats.Table.print (Fig4.to_table (Fig4.run ~mode ())) );
    ( "fig5",
      "QoS isolation: 2 LC + 2 BE tenants, scheduler on/off, 2 scenarios",
      fun mode -> Reflex_stats.Table.print (Fig5.to_table (Fig5.run ~mode ())) );
    ( "fig6a",
      "multi-core scaling with per-core LC tenants",
      fun mode -> Reflex_stats.Table.print (Fig6.cores_table (Fig6.run_cores ~mode ())) );
    ( "fig6b",
      "tenant scaling (100 IOPS per tenant)",
      fun mode -> Reflex_stats.Table.print (Fig6.tenants_table (Fig6.run_tenants ~mode ())) );
    ( "fig6c",
      "TCP connection scaling on one core",
      fun mode -> Reflex_stats.Table.print (Fig6.conns_table (Fig6.run_conns ~mode ())) );
    ( "fig7a",
      "FIO latency-throughput over local/iSCSI/ReFlex block devices",
      fun mode -> Reflex_stats.Table.print (Fig7.fio_table (Fig7.run_fio ~mode ())) );
    ( "fig7b",
      "FlashX graph analytics slowdown vs local",
      fun mode -> Reflex_stats.Table.print (Fig7.flashx_table (Fig7.run_flashx ~mode ())) );
    ( "fig7c",
      "RocksDB slowdown vs local",
      fun mode -> Reflex_stats.Table.print (Fig7.rocksdb_table (Fig7.run_rocksdb ~mode ())) );
    ( "ablations",
      "design-choice studies: NEG_LIMIT, donation fraction, batching cap, cost model",
      fun mode ->
        Reflex_stats.Table.print (Ablations.neg_limit_table (Ablations.run_neg_limit ~mode ()));
        Reflex_stats.Table.print (Ablations.donation_table (Ablations.run_donation ~mode ()));
        Reflex_stats.Table.print (Ablations.batching_table (Ablations.run_batching ~mode ()));
        Reflex_stats.Table.print (Ablations.cost_model_table (Ablations.run_cost_model ~mode ()))
    );
  ]

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter (fun (id, desc, _) -> Printf.printf "%-8s %s\n" id desc) experiments;
    Printf.printf "%-8s %s\n" "trace"
      "canonical telemetry scenario (see 'reflex_sim trace --help')";
    Printf.printf "%-8s %s\n" "chaos"
      "scripted fault plan with retries and SLO audit (see 'reflex_sim chaos --help')";
    Printf.printf "%-8s %s\n" "monitor"
      "online monitoring & alerting acceptance scenario (see 'reflex_sim monitor --help')";
    Printf.printf "%-8s %s\n" "obs"
      "flight recorder, forensic dumps & cost profiler acceptance (see 'reflex_sim obs --help')";
    Printf.printf "%-8s %s\n" "rack"
      "rack-scale balancing policy bakeoff, tenant migration & SLO audit (see 'reflex_sim rack --help')"
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* Print the full telemetry debrief for one world: latency breakdowns,
   component aggregates, SLO audit, scheduler decisions, final metrics. *)
let print_telemetry_reports ?audit_window tel =
  print_newline ();
  print_string (Trace_export.breakdown_report tel);
  print_newline ();
  print_string (Trace_export.component_report tel);
  print_newline ();
  print_string (Slo_audit.report ?window:audit_window tel);
  print_newline ();
  print_string (Telemetry.decisions_report tel);
  print_newline ();
  print_string (Telemetry.metrics_report tel)

let export_trace ?extra tel path =
  Trace_export.write_chrome_json ?extra tel path;
  Printf.printf "\nChrome trace written to %s (load in about://tracing or Perfetto)\n" path

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let export_prom tel path =
  write_file path (Prom_export.render tel);
  Printf.printf "\nPrometheus exposition written to %s\n" path

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"longer windows and denser sweeps")

(* Event-queue backend for every world the command builds.  Selection
   happens once, before any simulation exists — Sim.create picks up the
   process default.  Both backends execute events in the identical
   (time, seq) order, so the choice changes the datapath, never the
   output bytes. *)
let backend_arg =
  let backend_conv =
    Arg.enum [ ("heap", Reflex_engine.Sim.Heap); ("wheel", Reflex_engine.Sim.Wheel) ]
  in
  Arg.(
    value
    & opt backend_conv Reflex_engine.Sim.Wheel
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "event-queue backend for every simulated world: $(b,wheel) (hierarchical \
           timing wheel, the default) or $(b,heap) (binary min-heap, the reference \
           implementation); results are byte-identical either way")

let set_backend b = Reflex_engine.Sim.set_default_backend b

(* Observability outputs shared by run/trace/chaos/monitor/obs: one
   Cmdliner term so every command accepts the same two flags.  monitor
   and obs enrich both outputs (budget/alert gauges, alert instants);
   the other commands export the plain telemetry registry and spans. *)
let obs_out_term =
  let prom_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:
            "write the run's Prometheus text exposition (telemetry registry; budget and \
             alert gauges where the command has a monitor) to $(docv)")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "write a Chrome trace_event JSON of the run (lifecycle spans, fault windows, \
             causal links; alert instants where the command has a monitor) to $(docv)")
  in
  Term.(const (fun p t -> (p, t)) $ prom_out_arg $ trace_out_arg)

(* First alert-triggered flight dump as a Chrome trace (monitor/obs). *)
let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "write the first alert-triggered flight-recorder dump as Chrome trace_event \
           JSON to $(docv)")

let export_flight_dump dumps path =
  match dumps with
  | [] -> prerr_endline "warning: no alert fired, no flight dump captured"
  | d :: _ ->
    write_file path (Monitor.dump_chrome_json d);
    Printf.printf "\nFlight dump (trigger %s) written to %s\n" d.Monitor.d_rule path

(* SLO-audit bucket width, exposed on the commands that print the audit
   (default matches Slo_audit's built-in 10ms). *)
let audit_window_arg =
  Arg.(
    value & opt int 10_000
    & info [ "audit-window-us" ] ~docv:"US"
        ~doc:"SLO-audit bucket width in microseconds (default 10000 = 10ms)")

let audit_window_of us =
  if us <= 0 then failwith "--audit-window-us must be positive"
  else Reflex_engine.Time.us us

let run_cmd =
  let doc = "Run one experiment (or 'all') and print its table(s)." in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc:"experiment id")
  in
  let telemetry_arg =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:
            "enable the telemetry layer (lifecycle tracing, the metrics registry, and a \
             flight ring that records the scheduler decision log) on every simulated world \
             and print the observability reports for the last world after the run")
  in
  let run backend id full telemetry (prom_out, trace_out) =
    set_backend backend;
    let telemetry = telemetry || trace_out <> None || prom_out <> None in
    if telemetry then Common.set_default_telemetry true;
    (* Exports read the *last* world's telemetry, so force a serial run
       (jobs=1) to make "last" well defined. *)
    if trace_out <> None || prom_out <> None then Runner.set_default_jobs 1;
    let mode = if full then Common.Full else Common.Quick in
    let finish () =
      if telemetry then
        match !Common.last_telemetry with
        | None -> prerr_endline "warning: no telemetry-enabled world was built"
        | Some tel ->
          print_telemetry_reports tel;
          Option.iter (export_trace tel) trace_out;
          Option.iter (export_prom tel) prom_out
    in
    if id = "all" then begin
      List.iter (fun (_, _, f) -> f mode) experiments;
      finish ();
      `Ok ()
    end
    else
      match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
      | Some (_, _, f) ->
        f mode;
        finish ();
        `Ok ()
      | None -> `Error (false, "unknown experiment: " ^ id ^ " (try 'list')")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const run $ backend_arg $ id_arg $ full_arg $ telemetry_arg $ obs_out_term))

let trace_cmd =
  let doc =
    "Run the canonical telemetry scenario (2 cores, 2 LC tenants with 200us/500us SLOs, \
     2 BE write floods) with full lifecycle tracing and a flight ring, and emit \
     per-request latency breakdowns, the component summary, the SLO audit, the scheduler \
     decision log (the flight ring's decision records), the final metric values and a \
     Chrome trace_event JSON."
  in
  let out_arg =
    Arg.(
      value
      & opt string "reflex_trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"where to write the Chrome trace JSON")
  in
  let run backend full out audit_us (prom_out, trace_out) =
    set_backend backend;
    let mode = if full then Common.Full else Common.Quick in
    let { Tracing.telemetry = tel; rows } = Tracing.run ~mode () in
    Reflex_stats.Table.print (Tracing.to_table rows);
    print_telemetry_reports ~audit_window:(audit_window_of audit_us) tel;
    (* --trace-out (the shared flag) overrides -o/--out. *)
    export_trace tel (Option.value trace_out ~default:out);
    Option.iter (export_prom tel) prom_out
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ backend_arg $ full_arg $ out_arg $ audit_window_arg $ obs_out_term)

let chaos_cmd =
  let doc =
    "Run the scripted chaos scenario (die 0 fails at 2s for 2s, GC storm 5s..6s, link \
     flap at 8s for 500ms; x0.1 timeline unless $(b,--full)) against the multi-tenant \
     setup with client retries armed, and print the 500ms-bucket p95 table, the retry \
     and fault counters, the fault-window report and the SLO audit.  By default the \
     output is verified byte-identical across a same-seed rerun and a two-domain \
     parallel run."
  in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"N" ~doc:"root seed for the world, generators and injector")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"skip the determinism verification (runs the scenario once instead of 4x)")
  in
  let run backend full seed no_verify audit_us (prom_out, trace_out) =
    set_backend backend;
    let mode = if full then Common.Full else Common.Quick in
    let window = audit_window_of audit_us in
    if not no_verify then print_string (Chaos.debrief ~mode ~seed ());
    let r = Chaos.run ~mode ~seed () in
    if no_verify then print_string (Chaos.render_result r);
    print_newline ();
    print_string (Slo_audit.report ~window r.Chaos.telemetry);
    Option.iter (export_trace r.Chaos.telemetry) trace_out;
    Option.iter (export_prom r.Chaos.telemetry) prom_out
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ backend_arg $ full_arg $ seed_arg $ no_verify_arg $ audit_window_arg
      $ obs_out_term)

let monitor_cmd =
  let doc =
    "Run the monitoring acceptance scenario: the chaos world under the scripted fault \
     plan with the online monitoring pipeline armed (windowed time-series store, SLO \
     error budgets, multi-window burn-rate / load-knee / anomaly alert rules, opt-in \
     remediation).  The debrief asserts that alerts fire inside injected-fault windows \
     and name the overlapping fault, that a clean control run is silent, that a \
     disabled-monitor run is byte-identical to a no-monitor run, and that the whole \
     render is bit-reproducible serial and under two domains."
  in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"N" ~doc:"root seed for the world, generators and injector")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"skip the determinism verification (runs the scenario once instead of 4x)")
  in
  let run backend full seed no_verify (prom_out, trace_out) flight_dump =
    set_backend backend;
    let mode = if full then Common.Full else Common.Quick in
    if not no_verify then print_string (Monitor_exp.debrief ~mode ~seed ());
    if no_verify || prom_out <> None || trace_out <> None || flight_dump <> None then begin
      let r = Monitor_exp.run ~mode ~seed () in
      if no_verify then print_string (Monitor_exp.render_result r);
      let prom, instants, mon = Monitor_exp.exports r in
      Option.iter
        (fun path ->
          write_file path prom;
          Printf.printf "\nPrometheus exposition written to %s\n" path)
        prom_out;
      Option.iter
        (fun path ->
          Trace_export.write_chrome_json ~extra:instants r.Monitor_exp.faulted.telemetry
            path;
          Printf.printf
            "\nChrome trace written to %s (fault windows + alert instants included)\n" path)
        trace_out;
      Option.iter (export_flight_dump (Monitor.flight_dumps mon)) flight_dump
    end
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    Term.(
      const run $ backend_arg $ full_arg $ seed_arg $ no_verify_arg $ obs_out_term
      $ flight_dump_arg)

let obs_cmd =
  let doc =
    "Run the observability acceptance scenario: the chaos world with the always-on \
     flight recorder, alert-triggered forensic dumps, causal retry span links and the \
     continuous cost profiler armed.  By default the debrief verifies the first dump is \
     byte-identical across a same-seed rerun, serial vs two domains, and heap vs wheel \
     event backends, and that a disarmed recorder perturbs nothing; the profiler table \
     (host wall time, nondeterministic by design) is printed separately."
  in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"N" ~doc:"root seed for the world, generators and injector")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"skip the determinism verification (runs the scenario once instead of 8x)")
  in
  let dump_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-json" ] ~docv:"FILE"
          ~doc:"write the first flight dump's JSON forensic debrief to $(docv)")
  in
  let run backend full seed no_verify (prom_out, trace_out) flight_dump dump_json =
    set_backend backend;
    let mode = if full then Common.Full else Common.Quick in
    if not no_verify then print_string (Obs_exp.debrief ~mode ~seed ());
    (* One profiled run drives the exports and the cost table (the
       verification legs above run unprofiled, keeping them cheap). *)
    let r = Obs_exp.run ~mode ~seed ~profile:true () in
    if no_verify then print_string (Obs_exp.render_result r);
    print_newline ();
    print_string (Obs_exp.profile_report r);
    Option.iter (export_flight_dump (Obs_exp.dumps r)) flight_dump;
    Option.iter
      (fun path ->
        match Obs_exp.first_debrief r with
        | None -> prerr_endline "warning: no alert fired, no flight dump captured"
        | Some j ->
          write_file path j;
          Printf.printf "\nFlight dump debrief written to %s\n" path)
      dump_json;
    Option.iter
      (fun path ->
        export_trace ~extra:(Monitor.chrome_instants r.Obs_exp.monitor) r.Obs_exp.telemetry
          path)
      trace_out;
    Option.iter
      (fun path ->
        write_file path (Monitor.prometheus r.Obs_exp.monitor);
        Printf.printf "\nPrometheus exposition written to %s\n" path)
      prom_out
  in
  Cmd.v (Cmd.info "obs" ~doc)
    Term.(
      const run $ backend_arg $ full_arg $ seed_arg $ no_verify_arg $ obs_out_term
      $ flight_dump_arg $ dump_json_arg)

let rack_cmd =
  let doc =
    "Run the rack-scale scheduling scenario: dozens of ReFlex servers behind a \
     request-level balancer, thousands of Zipf-loaded latency-critical tenants with \
     replica sets, and a deliberately uneven best-effort soak.  Prints the policy \
     bakeoff table (random / round-robin / JSQ / power-of-two / oracle: windowed \
     p50/p95/p99, SLO compliance, dispatch imbalance, the po2c-vs-oracle gap) and the \
     migration leg (skew detector firings, migrations applied, imbalance before vs \
     after).  By default the render is verified byte-identical across a same-seed \
     rerun, serial vs two domains, and heap vs wheel event backends."
  in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"N" ~doc:"root seed for the rack, generators and policies")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"skip the determinism verification (runs the scenario once instead of 4x)")
  in
  let run backend full seed no_verify (prom_out, trace_out) =
    set_backend backend;
    let mode = if full then Common.Full else Common.Quick in
    if no_verify then print_string (Rack_exp.render ~mode ~seed ())
    else print_string (Rack_exp.debrief ~mode ~seed ());
    if prom_out <> None || trace_out <> None then begin
      (* One telemetry-armed po2c leg drives both exports: probe ticks,
         balancing decisions and migrations land in the flight recorder
         and the rack gauges. *)
      let tel = Rack_exp.export_leg ~mode ~seed () in
      Option.iter (export_trace tel) trace_out;
      Option.iter (export_prom tel) prom_out
    end
  in
  Cmd.v (Cmd.info "rack" ~doc)
    Term.(const run $ backend_arg $ full_arg $ seed_arg $ no_verify_arg $ obs_out_term)

let () =
  let doc = "ReFlex (ASPLOS'17) reproduction: run the paper's experiments" in
  let info = Cmd.info "reflex_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; trace_cmd; chaos_cmd; monitor_cmd; obs_cmd; rack_cmd ]))
