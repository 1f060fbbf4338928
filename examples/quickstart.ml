(* Quickstart: bring up a ReFlex server on a simulated 10GbE fabric,
   register a tenant, and issue a few reads and writes.

     dune exec examples/quickstart.exe *)

open Reflex_engine
open Reflex_net
open Reflex_proto
open Reflex_client

let () =
  (* A simulation, a fabric, and a ReFlex server on NVMe device A. *)
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let server = Reflex_core.Server.create sim ~fabric () in

  (* Connect a client using the IX (dataplane) stack — the fast path. *)
  let client =
    Client_lib.connect sim fabric
      ~server_host:(Reflex_core.Server.host server)
      ~accept:(Reflex_core.Server.accept server)
      ~stack:Stack_model.ix_client ()
  in

  (* Register a latency-critical tenant: 50K IOPS, 80% reads, p95 read
     latency no worse than 500us. *)
  Client_lib.register client ~tenant:1
    ~slo:{ Message.latency_us = 500; iops = 50_000; read_pct = 80; latency_critical = true }
    (fun status -> Printf.printf "registered: %s\n" (Message.status_to_string status));
  ignore (Sim.run sim);

  (* Write a block, read it back, time both. *)
  Client_lib.write client ~lba:42 ~len:4096 (fun status ~latency ->
      Printf.printf "write 4KB @ lba 42: %s in %s\n"
        (Message.status_to_string status)
        (Time.to_string latency));
  ignore (Sim.run sim);
  Client_lib.read client ~lba:42 ~len:4096 (fun status ~latency ->
      Printf.printf "read  4KB @ lba 42: %s in %s\n"
        (Message.status_to_string status)
        (Time.to_string latency));
  ignore (Sim.run sim);

  (* Ordering: a barrier completes only after every earlier I/O has. *)
  Client_lib.write client ~lba:100 ~len:4096 (fun _ ~latency:_ -> ());
  Client_lib.write client ~lba:101 ~len:4096 (fun _ ~latency:_ -> ());
  Client_lib.barrier client (fun status ~latency ->
      Printf.printf "barrier (after 2 writes): %s in %s\n"
        (Message.status_to_string status)
        (Time.to_string latency));
  ignore (Sim.run sim);

  (* A short steady-state probe: queue-depth-1 reads for 100ms. *)
  let gen =
    Load_gen.closed_loop sim ~client ~depth:1 ~think:(Time.us 50) ~read_ratio:1.0 ~bytes:4096
      ~until:(Time.add (Sim.now sim) (Time.ms 100))
      ()
  in
  ignore (Sim.run sim);
  Printf.printf "unloaded read latency: avg %.1fus, p95 %.1fus (%d samples)\n"
    (Load_gen.mean_read_us gen) (Load_gen.p95_read_us gen)
    (Reflex_stats.Hdr_histogram.count (Load_gen.reads gen));
  Printf.printf "(paper Table 2, ReFlex IX client: 99us avg / 113us p95)\n"
