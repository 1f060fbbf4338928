(* The four host-cost workloads of the benchmark.

   Every world is built from public constructors only ([Sim.create
   ~seed], [Fabric.create], [Server.create] / [Rack.create],
   [Client_lib], [Load_gen]) and every PRNG stream — the simulation's
   root stream, the servers', each generator's and each rack tenant's —
   is drawn from one seed stream, so the same seed gives the same inputs
   and a different seed changes them.

   A world is built in three staged calls so the harness can time each
   phase on its own: [build] makes the world (simulation, fabric,
   servers, observers), the closure it returns admits the tenants, and
   the closure that one returns creates the generators and hands back a
   {!live} world ready for warmup.  The results a run digests come from
   simulation counters only; host-clock readings go to the separate
   {!host} accumulators and never into a result. *)

open Reflex_engine
open Reflex_net
open Reflex_client
module Server = Reflex_core.Server
module Telemetry = Reflex_telemetry.Telemetry
module Profiler = Reflex_obs.Profiler
module Flight = Reflex_obs.Flight
module Monitor = Reflex_monitor.Monitor
module Rack = Reflex_rack.Rack
module Policy = Reflex_rack.Policy
module Rack_obs = Reflex_rack_obs.Rack_obs
module Hdr = Reflex_stats.Hdr_histogram
module Message = Reflex_proto.Message
module Nvme = Reflex_flash.Nvme_model

type kind = Read_peak | Tenant_scale | Mixed_observed | Rack_po2c

let all = [ Read_peak; Tenant_scale; Mixed_observed; Rack_po2c ]

let name = function
  | Read_peak -> "read_peak"
  | Tenant_scale -> "tenant_scale"
  | Mixed_observed -> "mixed_observed"
  | Rack_po2c -> "rack_po2c"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Simulated timeline of one repetition.  The window length is part of
   every per-request metric's definition (allocation per request grows
   with it while per-tenant state warms up), so it is fixed per
   workload; [short] cuts it for the backend self-test only. *)
type timeline = { warmup : Time.t; window : Time.t; slices : int }

let timeline ~short kind =
  let t =
    match kind with
    | Read_peak -> { warmup = Time.ms 50; window = Time.ms 400; slices = 1000 }
    | Tenant_scale -> { warmup = Time.ms 50; window = Time.ms 400; slices = 1000 }
    | Mixed_observed -> { warmup = Time.ms 100; window = Time.ms 400; slices = 1000 }
    | Rack_po2c -> { warmup = Time.ms 10; window = Time.ms 100; slices = 1000 }
  in
  if short then { t with window = Time.scale t.window 0.125; slices = 125 } else t

(* After the window closes, generators stop issuing and in-flight work
   drains for at most this long; anything still incomplete then fails. *)
let drain = Time.ms 50

type env = { seed : int; backend : Sim.backend; short : bool }

(* Host-side accumulators for the calls the benchmark itself makes into
   the rack layer, filled in traced runs only. *)
type host = {
  timed : bool;
  mutable dispatch_ns : int;
  mutable dispatches : int;
  mutable probe_ns : int;
  mutable probes : int;
}

let new_host ~timed = { timed; dispatch_ns = 0; dispatches = 0; probe_ns = 0; probes = 0 }
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Cumulative simulated counters; the harness differences two snapshots
   to get the measured window. *)
type counters = {
  issued : int;
  completed : int;  (** completions of any status *)
  errors : int;
  retries : int;
  tokens : float;
  flash_reads : int;
  flash_writes : int;
  bytes : int;  (** bytes the servers sent and received *)
  spans : int;
  flight : int;
  rack_traced : int;
  dispatched : int array;  (** per-server rack dispatches *)
}

type outcome = {
  digest_text : string;  (** canonical rendering of the simulated results *)
  issued_total : int;
  failed_total : int;  (** errored, or still incomplete after the drain *)
  checks : (string * bool) list;
  fidelity : string list;
}

type live = {
  sim : Sim.t;
  tl : timeline;
  start_window : unit -> unit;
  end_window : unit -> unit;
  counters : unit -> counters;
  finish : unit -> outcome;
  tenants_per_thread : float;
  thread_util : unit -> float;
  deficits : unit -> int;
  flight_dropped : unit -> int;
  rack_untiled : unit -> int;
  hop_probe : int -> unit;  (** [Rack_obs.bench_hop_records]; no-op elsewhere *)
}

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

let seeder env = Prng.create (Int64.of_int (0x5EED_0000 + env.seed))

(* The profiler rides on an enabled telemetry instance; worlds that arm
   no observer and carry no profiler keep the disabled one. *)
let telemetry_for ~observed ~profiler =
  if observed || Profiler.enabled profiler then begin
    let t = Telemetry.create () in
    if Profiler.enabled profiler then Telemetry.set_profiler t profiler;
    t
  end
  else Telemetry.disabled

let lc_slo ~latency_us ~iops ~read_pct =
  { Message.latency_us; iops; read_pct; latency_critical = true }

let be_slo ~read_pct = { Message.latency_us = 0; iops = 0; read_pct; latency_critical = false }
let pct h p = if Hdr.count h = 0 then Float.nan else Hdr.percentile_us h p
let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let fsum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let mean xs = fsum Fun.id xs /. float_of_int (max 1 (List.length xs))

(* Register every client, then drain the load-free simulation until the
   answers are in.  Returns how many registrations were accepted. *)
let register_all sim regs =
  let ok = ref 0 in
  List.iter
    (fun (client, tenant, slo) ->
      Client_lib.register client ~tenant ~slo (fun s -> if s = Message.Ok then incr ok))
    regs;
  ignore (Sim.run sim);
  !ok

let gen_line buf i g =
  Buffer.add_string buf
    (Printf.sprintf "gen %d issued=%d completed=%d errors=%d iops=%.3f r50=%.3f r95=%.3f r99=%.3f w95=%.3f\n"
       i (Load_gen.issued g) (Load_gen.completed g) (Load_gen.errors g) (Load_gen.achieved_iops g)
       (pct (Load_gen.reads g) 50.0)
       (pct (Load_gen.reads g) 95.0)
       (pct (Load_gen.reads g) 99.0)
       (pct (Load_gen.writes g) 95.0))

(* Read-latency histogram over a set of generators. *)
let merged_reads gens =
  let h = Hdr.create () in
  List.iter (fun g -> Hdr.merge ~dst:h ~src:(Load_gen.reads g)) gens;
  h

let achieved gens = fsum Load_gen.achieved_iops gens

(* ------------------------------------------------------------------ *)
(* Single-server worlds                                                *)
(* ------------------------------------------------------------------ *)

type single = {
  s_sim : Sim.t;
  s_fabric : Fabric.t;
  s_server : Server.t;
  s_tel : Telemetry.t;
}

let single_world env seeds ~telemetry =
  let sim = Sim.create ~seed:(Prng.bits64 seeds) ~backend:env.backend () in
  let fabric = Fabric.create sim () in
  let server = Server.create sim ~fabric ~seed:(Prng.bits64 seeds) ~telemetry () in
  { s_sim = sim; s_fabric = fabric; s_server = server; s_tel = telemetry }

let connect w ?host () =
  Client_lib.connect w.s_sim w.s_fabric ~server_host:(Server.host w.s_server)
    ~accept:(Server.accept w.s_server) ~stack:Stack_model.ix_client ?host ~telemetry:w.s_tel ()

(* The [live] record shared by the single-server workloads.  [result]
   renders the workload-specific digest lines, checks and fidelity rows
   once the run has drained. *)
let single_live w ~tl ~tenants ~clients ~gens ~result =
  let dev = Server.device w.s_server in
  let sh = Server.host w.s_server in
  let counters () =
    {
      issued = sum Load_gen.issued gens;
      completed = sum Load_gen.completed gens;
      errors = sum Load_gen.errors gens;
      retries = sum Client_lib.retries clients;
      tokens = Server.tokens_spent w.s_server;
      flash_reads = Nvme.reads_completed dev;
      flash_writes = Nvme.writes_completed dev;
      bytes = Fabric.bytes_sent sh + Fabric.bytes_received sh;
      spans = Telemetry.spans_recorded w.s_tel;
      flight = Flight.total (Telemetry.flight w.s_tel);
      rack_traced = 0;
      dispatched = [||];
    }
  in
  let deficits () = sum (fun tenant -> Server.deficit_notifications w.s_server ~tenant) tenants in
  let finish () =
    let buf = Buffer.create 4096 in
    List.iteri (gen_line buf) gens;
    Buffer.add_string buf
      (Printf.sprintf "server completed=%d tokens=%.6f tenants=%d deficits=%d\n"
         (Server.requests_completed w.s_server) (Server.tokens_spent w.s_server)
         (Server.registered_tenants w.s_server) (deficits ()));
    Buffer.add_string buf
      (Printf.sprintf "device reads=%d writes=%d wbuf=%d\n" (Nvme.reads_completed dev)
         (Nvme.writes_completed dev) (Nvme.write_buffer_used dev));
    let extra, checks, fidelity = result () in
    Buffer.add_string buf extra;
    let issued = sum Load_gen.issued gens in
    let done_ = sum Load_gen.completed gens in
    {
      digest_text = Buffer.contents buf;
      issued_total = issued;
      failed_total = sum Load_gen.errors gens + (issued - done_);
      checks;
      fidelity;
    }
  in
  let n_threads = List.length (Server.thread_utilizations w.s_server) in
  {
    sim = w.s_sim;
    tl;
    start_window = (fun () -> List.iter Load_gen.mark_measurement_start gens);
    end_window = (fun () -> List.iter Load_gen.freeze_window gens);
    counters;
    finish;
    tenants_per_thread =
      float_of_int (Server.registered_tenants w.s_server) /. float_of_int (max 1 n_threads);
    thread_util = (fun () -> mean (Server.thread_utilizations w.s_server));
    deficits;
    flight_dropped = (fun () -> Flight.dropped (Telemetry.flight w.s_tel));
    rack_untiled = (fun () -> 0);
    hop_probe = ignore;
  }

(* --- read_peak: the Fig 4 one-core headline point ------------------ *)

let read_peak_rate = 750e3

(* The Fig 4 one-thread sweep's last point before the knee: 800K IOPS
   offered at a 186.4 us p95 (past it, 880K offered reads 4.8 ms).  At
   750K the tail must stay under it. *)
let fig4_knee_p95_us = 186.4

let build_read_peak env ~profiler =
  let seeds = seeder env in
  let tl = timeline ~short:env.short Read_peak in
  let w = single_world env seeds ~telemetry:(telemetry_for ~observed:false ~profiler) in
  fun () ->
    let clients = List.init 4 (fun _ -> connect w ()) in
    let admitted =
      register_all w.s_sim
        (List.mapi (fun i c -> (c, i + 1, be_slo ~read_pct:100)) clients)
    in
    fun () ->
      let until = Time.add (Sim.now w.s_sim) (Time.add tl.warmup tl.window) in
      let gens =
        List.map
          (fun client ->
            Load_gen.open_loop w.s_sim ~client ~rate:(read_peak_rate /. 4.0) ~read_ratio:1.0
              ~bytes:1024 ~until ~seed:(Prng.bits64 seeds) ())
          clients
      in
      let result () =
        let ach = achieved gens in
        let p95 = pct (merged_reads gens) 95.0 in
        ( Printf.sprintf "admitted=%d\n" admitted,
          [
            ("all 4 tenants admitted", admitted = 4);
            ( Printf.sprintf "achieved %.1fK within 3%% of offered 750K" (ach /. 1e3),
              Float.abs (ach -. read_peak_rate) <= 0.03 *. read_peak_rate );
            ( Printf.sprintf "p95 %.1f us below the Fig 4 knee (%.0f us)" p95 fig4_knee_p95_us,
              p95 < fig4_knee_p95_us );
          ],
          [
            Printf.sprintf
              "Fig 4 ReFlex 1 thread: paper ~850K IOPS/core at the knee; here %.1fK IOPS offered \
               750K, p95 %.1f us"
              (ach /. 1e3) p95;
          ] )
      in
      single_live w ~tl ~tenants:[ 1; 2; 3; 4 ] ~clients
        ~gens ~result

(* --- tenant_scale: the Fig 6b one-core tenant point ---------------- *)

let n_scale_tenants = 2000

let build_tenant_scale env ~profiler =
  let seeds = seeder env in
  let tl = timeline ~short:env.short Tenant_scale in
  let w = single_world env seeds ~telemetry:(telemetry_for ~observed:false ~profiler) in
  let hosts =
    Array.init 16 (fun i ->
        Fabric.add_host w.s_fabric ~name:(Printf.sprintf "loadgen-%d" i)
          ~stack:Stack_model.ix_client)
  in
  fun () ->
    let clients = List.init n_scale_tenants (fun i -> connect w ~host:hosts.(i mod 16) ()) in
    let slo = lc_slo ~latency_us:2000 ~iops:100 ~read_pct:100 in
    let admitted = register_all w.s_sim (List.mapi (fun i c -> (c, i + 1, slo)) clients) in
    fun () ->
      let until = Time.add (Sim.now w.s_sim) (Time.add tl.warmup tl.window) in
      let gens =
        List.filter_map
          (fun client ->
            let seed = Prng.bits64 seeds in
            if Client_lib.handle client = None then None
            else
              Some
                (Load_gen.open_loop w.s_sim ~client ~pacing:`Cbr ~rate:100.0 ~read_ratio:1.0
                   ~bytes:1024 ~until ~seed ()))
          clients
      in
      let result () =
        let ach = achieved gens in
        let p95 = pct (merged_reads gens) 95.0 in
        ( Printf.sprintf "admitted=%d\n" admitted,
          [
            (Printf.sprintf "all %d tenants admitted (%d)" n_scale_tenants admitted,
             admitted = n_scale_tenants);
            (Printf.sprintf "p95 %.1f us at most 2 ms" p95, p95 <= 2000.0);
          ],
          [
            Printf.sprintf
              "Fig 6b 1 core: paper ~2.5K tenants x 100 IOPS (~250K IOPS) per core; here %d \
               tenants, %.1fK IOPS, p95 %.1f us"
              admitted (ach /. 1e3) p95;
          ] )
      in
      single_live w ~tl
        ~tenants:(List.init n_scale_tenants (fun i -> i + 1))
        ~clients ~gens ~result

(* --- mixed_observed: Fig 5 scenario 1, scheduler on, observers armed - *)

let build_mixed_observed env ~profiler =
  let seeds = seeder env in
  let tl = timeline ~short:env.short Mixed_observed in
  let telemetry = telemetry_for ~observed:true ~profiler in
  Telemetry.set_flight telemetry (Flight.create ());
  let w = single_world env seeds ~telemetry in
  let monitor = Monitor.create ~server:w.s_server ~telemetry () in
  Monitor.start monitor w.s_sim ();
  fun () ->
    let clients = List.init 4 (fun _ -> connect w ()) in
    let slos =
      [
        lc_slo ~latency_us:500 ~iops:120_000 ~read_pct:100;
        lc_slo ~latency_us:500 ~iops:70_000 ~read_pct:80;
        be_slo ~read_pct:95;
        be_slo ~read_pct:25;
      ]
    in
    let admitted =
      register_all w.s_sim (List.mapi (fun i (c, slo) -> (c, i + 1, slo)) (List.combine clients slos))
    in
    fun () ->
      let until = Time.add (Sim.now w.s_sim) (Time.add tl.warmup tl.window) in
      let a, b, c, d =
        match clients with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
      in
      let gen_a =
        Load_gen.open_loop w.s_sim ~client:a ~pacing:`Cbr ~rate:120_000.0 ~read_ratio:1.0
          ~bytes:4096 ~until ~seed:(Prng.bits64 seeds) ()
      in
      let gen_b =
        Load_gen.open_loop w.s_sim ~client:b ~pacing:`Cbr ~mix:`Deterministic ~rate:70_000.0
          ~read_ratio:0.8 ~bytes:4096 ~until ~seed:(Prng.bits64 seeds) ()
      in
      let gen_c =
        Load_gen.closed_loop w.s_sim ~client:c ~depth:256 ~read_ratio:0.95 ~bytes:4096 ~until
          ~seed:(Prng.bits64 seeds) ()
      in
      let gen_d =
        Load_gen.closed_loop w.s_sim ~client:d ~depth:256 ~read_ratio:0.25 ~bytes:4096 ~until
          ~seed:(Prng.bits64 seeds) ()
      in
      let gens = [ gen_a; gen_b; gen_c; gen_d ] in
      let result () =
        let p95 g = Load_gen.p95_read_us g and kiops g = Load_gen.achieved_iops g /. 1e3 in
        ( Printf.sprintf "admitted=%d alerts=%d\n" admitted (Monitor.fired_total monitor),
          [
            ("all 4 tenants admitted", admitted = 4);
            (Printf.sprintf "A p95 %.1f us <= 500 us" (p95 gen_a), p95 gen_a <= 500.0);
            (Printf.sprintf "B p95 %.1f us <= 500 us" (p95 gen_b), p95 gen_b <= 500.0);
            (Printf.sprintf "A %.1fK >= 97%% of 120K" (kiops gen_a), kiops gen_a >= 0.97 *. 120.0);
            (Printf.sprintf "B %.1fK >= 97%% of 70K" (kiops gen_b), kiops gen_b >= 0.97 *. 70.0);
            ( Printf.sprintf "D %.1fK throttled below C %.1fK" (kiops gen_d) (kiops gen_c),
              kiops gen_d < kiops gen_c );
          ],
          [
            Printf.sprintf
              "Fig 5 scenario 1, sched on: paper A/B meet the 500 us p95 SLO; here A %.1f us, B \
               %.1f us"
              (p95 gen_a) (p95 gen_b);
            Printf.sprintf "Fig 5 scenario 1 best effort: paper C ~36K, D ~7K IOPS; here C %.1fK, D %.1fK"
              (kiops gen_c) (kiops gen_d);
          ] )
      in
      single_live w ~tl ~tenants:[ 1; 2; 3; 4 ] ~clients
        ~gens ~result

(* ------------------------------------------------------------------ *)
(* rack_po2c: the rack layer over per-server QoS                       *)
(* ------------------------------------------------------------------ *)

let rack_servers = 16
let rack_tenants = 256
let rack_total_iops = 800e3
let rack_latency_us = 300
let probe_period = Time.us 250

(* Deterministic Zipf(0.7) per-tenant rates summing to the total. *)
let zipf_rates ~n ~total =
  let w = Array.init n (fun i -> float_of_int (i + 1) ** -0.7) in
  let s = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> total *. x /. s) w

let imbalance ~before ~after =
  let n = Array.length before in
  let total = ref 0 and hot = ref 0 in
  for i = 0 to n - 1 do
    let d = after.(i) - before.(i) in
    total := !total + d;
    if d > !hot then hot := d
  done;
  if !total = 0 then 1.0 else float_of_int !hot *. float_of_int n /. float_of_int !total

let build_rack_po2c env ~profiler ~host =
  let seeds = seeder env in
  let tl = timeline ~short:env.short Rack_po2c in
  let sim = Sim.create ~seed:(Prng.bits64 seeds) ~backend:env.backend () in
  let telemetry = telemetry_for ~observed:false ~profiler in
  let rack =
    Rack.create sim ~n_servers:rack_servers ~policy:Policy.Po2c ~seed:(Prng.bits64 seeds)
      ~telemetry ()
  in
  let obs = Rack_obs.create rack in
  let servers = List.init rack_servers (Rack.server rack) in
  fun () ->
    let rates = zipf_rates ~n:rack_tenants ~total:rack_total_iops in
    let placed =
      Array.to_list
        (Array.mapi
           (fun i rate ->
             let slo =
               lc_slo ~latency_us:rack_latency_us ~iops:(int_of_float (ceil rate)) ~read_pct:100
             in
             match Rack.add_tenant rack ~id:(i + 1) ~slo ~replicas:3 with
             | `Placed _ -> Some (i + 1, rate)
             | `Rejected -> None)
           rates)
      |> List.filter_map Fun.id
    in
    fun () ->
      let t0 = Sim.now sim in
      let t_end = Time.add t0 (Time.add tl.warmup tl.window) in
      let issued = ref 0 in
      let dispatch ~tenant ~lba =
        incr issued;
        if host.timed then begin
          let s = now_ns () in
          Rack.dispatch_read rack ~tenant ~lba ~len:1024 ();
          host.dispatch_ns <- host.dispatch_ns + (now_ns () - s);
          host.dispatches <- host.dispatches + 1
        end
        else Rack.dispatch_read rack ~tenant ~lba ~len:1024 ()
      in
      let probe () =
        if host.timed then begin
          let s = now_ns () in
          Rack.sample_probes rack;
          host.probe_ns <- host.probe_ns + (now_ns () - s);
          host.probes <- host.probes + 1
        end
        else Rack.sample_probes rack
      in
      Sim.every sim ~every:probe_period ~until:t_end (fun _ -> probe ());
      (* Constant-rate stream per tenant, phase-shifted by a draw from its
         own stream so the streams do not tick in lockstep. *)
      List.iter
        (fun (tenant, rate) ->
          let prng = Prng.create (Prng.bits64 seeds) in
          let period_us = 1e6 /. rate in
          let phase = Time.of_float_us (Prng.float prng *. period_us) in
          ignore
            (Sim.at sim (Time.add t0 phase) (fun () ->
                 Sim.every sim ~every:(Time.of_float_us period_us) ~until:t_end (fun _ ->
                     dispatch ~tenant ~lba:(Int64.of_int (Prng.int prng (1 lsl 22) * 8))))))
        placed;
      let counters () =
        {
          issued = !issued;
          completed = Rack.completed rack;
          errors = Rack.errors rack;
          retries = 0;
          tokens = fsum Server.tokens_spent servers;
          flash_reads = sum (fun s -> Nvme.reads_completed (Server.device s)) servers;
          flash_writes = sum (fun s -> Nvme.writes_completed (Server.device s)) servers;
          bytes =
            sum (fun s -> Fabric.bytes_sent (Server.host s) + Fabric.bytes_received (Server.host s))
              servers;
          spans = Telemetry.spans_recorded telemetry;
          flight = Flight.total (Telemetry.flight telemetry);
          rack_traced = Rack_obs.traced obs;
          dispatched = Rack.dispatched rack;
        }
      in
      let finish () =
        let h = Rack.latency_hist rack in
        let buf = Buffer.create 2048 in
        Buffer.add_string buf
          (Printf.sprintf "rack placed=%d issued=%d completed=%d errors=%d lc=%d slo=%d/%d migrations=%d\n"
             (List.length placed) !issued (Rack.completed rack) (Rack.errors rack)
             (Rack.lc_dispatched rack) (Rack.slo_ok rack) (Rack.slo_total rack)
             (Rack.migrations rack));
        Buffer.add_string buf
          (Printf.sprintf "latency p50=%.3f p95=%.3f p99=%.3f\n" (pct h 50.0) (pct h 95.0)
             (pct h 99.0));
        Buffer.add_string buf
          (Printf.sprintf "dispatched %s\n"
             (String.concat " " (Array.to_list (Array.map string_of_int (Rack.dispatched rack)))));
        List.iteri
          (fun i s ->
            Buffer.add_string buf
              (Printf.sprintf "server %d completed=%d tokens=%.6f reads=%d\n" i
                 (Server.requests_completed s) (Server.tokens_spent s)
                 (Nvme.reads_completed (Server.device s))))
          servers;
        Buffer.add_string buf
          (Printf.sprintf "trace traced=%d untiled=%d fallbacks=%d overflow=%d violations=%s\n"
             (Rack_obs.traced obs) (Rack_obs.untiled obs) (Rack_obs.fallbacks obs)
             (Rack_obs.slot_overflow obs)
             (String.concat "," (Array.to_list (Array.map string_of_int (Rack_obs.violations obs)))));
        let n_placed = List.length placed in
        let slo_pct =
          if Rack.slo_total rack = 0 then 0.0
          else 100.0 *. float_of_int (Rack.slo_ok rack) /. float_of_int (Rack.slo_total rack)
        in
        {
          digest_text = Buffer.contents buf;
          issued_total = !issued;
          failed_total = Rack.errors rack + (!issued - Rack.completed rack);
          checks =
            [
              (Printf.sprintf "all %d tenants placed (%d)" rack_tenants n_placed, n_placed = rack_tenants);
              ("Rack_obs hop deltas tile e2e", Rack_obs.tiling_ok obs);
              ( Printf.sprintf "no trace slot overflow (%d)" (Rack_obs.slot_overflow obs),
                Rack_obs.slot_overflow obs = 0 );
            ];
          fidelity =
            [
              Printf.sprintf
                "Rack po2c (no paper figure; RackSched-style two layers): p99 %.1f us, %.2f%% of \
                 LC reads inside the %d us SLO"
                (pct h 99.0) slo_pct rack_latency_us;
            ];
        }
      in
      let n_attach = sum (fun s -> Server.registered_tenants s) servers in
      {
        sim;
        tl;
        start_window = ignore;
        end_window = ignore;
        counters;
        finish;
        tenants_per_thread = float_of_int n_attach /. float_of_int rack_servers;
        thread_util = (fun () -> mean (List.concat_map Server.thread_utilizations servers));
        deficits =
          (fun () ->
            sum
              (fun s ->
                sum (fun (id, _) -> Server.deficit_notifications s ~tenant:id) placed)
              servers);
        flight_dropped = (fun () -> Flight.dropped (Telemetry.flight telemetry));
        rack_untiled = (fun () -> Rack_obs.untiled obs);
        hop_probe = Rack_obs.bench_hop_records obs;
      }

(* The staged builder: world, then admission, then generators. *)
let build kind env ~profiler ~host =
  match kind with
  | Read_peak -> build_read_peak env ~profiler
  | Tenant_scale -> build_tenant_scale env ~profiler
  | Mixed_observed -> build_mixed_observed env ~profiler
  | Rack_po2c -> build_rack_po2c env ~profiler ~host
