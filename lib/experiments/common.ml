open Reflex_engine
open Reflex_net
open Reflex_proto
open Reflex_client
open Reflex_telemetry

type mode = Quick | Full

let window = function Quick -> Time.ms 150 | Full -> Time.ms 500
let scale_points mode quick full = match mode with Quick -> quick | Full -> full

type reflex_world = {
  sim : Sim.t;
  fabric : Fabric.t;
  server : Reflex_core.Server.t;
  telemetry : Telemetry.t;
}

(* Worlds built by experiments enable telemetry when this flag is set
   (the `--telemetry`/`--trace-out` CLI path).  Each world gets its OWN
   instance — never a shared one — so Runner's domain-parallel sweeps
   stay race-free and deterministic. *)
let default_telemetry = ref false
let set_default_telemetry v = default_telemetry := v

(* The most recent telemetry-enabled world built by [make_reflex], for
   trace export after a run.  Only meaningful in serial runs (the trace
   exporter forces jobs=1). *)
let last_telemetry : Telemetry.t option ref = ref None

let make_reflex ?(n_threads = 1) ?max_threads ?(qos = true) ?profile ?neg_limit
    ?donate_fraction ?seed ?telemetry () =
  let telemetry =
    match telemetry with
    | Some t -> t
    | None ->
      if !default_telemetry then begin
        (* The flight ring carries the scheduler decisions that the
           [--telemetry] debrief prints. *)
        let t = Telemetry.create () in
        Telemetry.set_flight t (Reflex_obs.Flight.create ());
        t
      end
      else Telemetry.disabled
  in
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let server =
    Reflex_core.Server.create sim ~fabric ?profile ~n_threads ?max_threads ~qos ?neg_limit
      ?donate_fraction ?seed ~telemetry ()
  in
  if Telemetry.enabled telemetry then last_telemetry := Some telemetry;
  { sim; fabric; server; telemetry }

type baseline_world = {
  bsim : Sim.t;
  bfabric : Fabric.t;
  bserver : Reflex_baselines.Baseline_server.t;
}

let make_baseline ~kind ?(n_threads = 1) ?seed () =
  let bsim = Sim.create () in
  let bfabric = Fabric.create bsim () in
  let bserver = Reflex_baselines.Baseline_server.create bsim ~fabric:bfabric ~kind ~n_threads ?seed () in
  { bsim; bfabric; bserver }

let lc_slo ~latency_us ~iops ~read_pct =
  { Message.latency_us; iops; read_pct; latency_critical = true }

let be_slo ?(read_pct = 100) () =
  { Message.latency_us = 0; iops = 0; read_pct; latency_critical = false }

(* Run the simulation in short slices until the registration answer
   arrives — a full drain would also execute any load generators already
   started on this simulation. *)
let register_sync sim client ~tenant ?slo () =
  let result = ref None in
  Client_lib.register client ~tenant ?slo (fun s -> result := Some s);
  let deadline = Time.add (Sim.now sim) (Time.ms 50) in
  let rec wait () =
    (* [live_pending] excludes daemon events (monitor ticks), which never drain. *)
    if !result = None && Time.(Sim.now sim < deadline) && Sim.live_pending sim > 0 then begin
      ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.us 200)) sim);
      wait ()
    end
  in
  wait ();
  match !result with Some s -> s | None -> failwith "registration did not complete"

let try_client_of w ?(stack = Stack_model.ix_client) ?slo ?retry ?retry_seed ~tenant () =
  let client =
    Client_lib.connect w.sim w.fabric
      ~server_host:(Reflex_core.Server.host w.server)
      ~accept:(Reflex_core.Server.accept w.server)
      ~stack ?retry ?retry_seed ~telemetry:w.telemetry ()
  in
  match register_sync w.sim client ~tenant ?slo () with
  | Message.Ok -> Ok client
  | s -> Error s

let client_of w ?stack ?slo ?retry ?retry_seed ~tenant () =
  match try_client_of w ?stack ?slo ?retry ?retry_seed ~tenant () with
  | Ok c -> c
  | Error s -> failwith ("registration refused: " ^ Message.status_to_string s)

let client_of_baseline w ?(stack = Stack_model.ix_client) ~tenant () =
  let client =
    Client_lib.connect w.bsim w.bfabric
      ~server_host:(Reflex_baselines.Baseline_server.host w.bserver)
      ~accept:(Reflex_baselines.Baseline_server.accept w.bserver)
      ~stack ()
  in
  (match register_sync w.bsim client ~tenant () with
  | Message.Ok -> ()
  | s -> failwith ("baseline registration failed: " ^ Message.status_to_string s));
  client

(* Current git commit, read straight from [.git] (no subprocess — the
   bench harness embeds this in every --json output so results are
   attributable).  Walks up from the cwd; "unknown" when not in a
   checkout. *)
let git_sha () =
  let read_line path =
    try
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ -> None
  in
  let rec find dir depth =
    if depth > 8 then None
    else
      let git = Filename.concat dir ".git" in
      match read_line (Filename.concat git "HEAD") with
      | Some line ->
        if String.length line > 5 && String.sub line 0 5 = "ref: " then
          read_line (Filename.concat git (String.sub line 5 (String.length line - 5)))
        else Some line
      | None ->
        let parent = Filename.dirname dir in
        if parent = dir then None else find parent (depth + 1)
  in
  match find (Sys.getcwd ()) 0 with
  | Some sha when sha <> "" -> sha
  | _ -> "unknown"

let measure_generators sim gens ~warmup ~window =
  let t0 = Sim.now sim in
  ignore (Sim.run ~until:(Time.add t0 warmup) sim);
  List.iter Load_gen.mark_measurement_start gens;
  ignore (Sim.run ~until:(Time.add t0 (Time.add warmup window)) sim);
  List.iter Load_gen.freeze_window gens;
  (* Short drain so in-flight tails land in the histograms. *)
  ignore (Sim.run ~until:(Time.add (Sim.now sim) (Time.ms 20)) sim)
