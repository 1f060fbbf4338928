(* Tests for the application workload models (FIO, FlashX, RocksDB) and
   the access-path abstraction. *)

open Reflex_engine
open Reflex_flash
open Reflex_apps

let local_path sim = Access_path.local (Reflex_baselines.Local.create sim ())

let reflex_path () =
  let sim = Sim.create () in
  let fabric = Reflex_net.Fabric.create sim () in
  let server = Reflex_core.Server.create sim ~fabric () in
  let path = ref None in
  Access_path.remote sim fabric
    ~server_host:(Reflex_core.Server.host server)
    ~accept:(Reflex_core.Server.accept server)
    ~n_contexts:2 ~tenant:1 ()
    (fun p -> path := Some p);
  ignore (Sim.run sim);
  match !path with Some p -> (sim, p) | None -> Alcotest.fail "remote path not ready"

(* ------------------------------------------------------------------ *)
(* Access_path                                                        *)
(* ------------------------------------------------------------------ *)

let test_access_path_local () =
  let sim = Sim.create () in
  let path = local_path sim in
  let lat = ref None in
  Access_path.submit path ~kind:Io_op.Read ~lba:0 ~bytes:4096 (fun ~latency -> lat := Some latency);
  ignore (Sim.run sim);
  match !lat with
  | Some l -> Alcotest.(check bool) "local latency ~78us" true Time.(l > Time.us 40 && l < Time.us 200)
  | None -> Alcotest.fail "no completion"

let test_access_path_remote () =
  let sim, path = reflex_path () in
  let lat = ref None in
  Access_path.submit path ~kind:Io_op.Write ~lba:5 ~bytes:4096 (fun ~latency -> lat := Some latency);
  ignore (Sim.run sim);
  match !lat with
  | Some l ->
    (* Linux block-device write path: tens of microseconds. *)
    Alcotest.(check bool) "remote write completes" true Time.(l > Time.us 20 && l < Time.ms 2)
  | None -> Alcotest.fail "no completion"

(* ------------------------------------------------------------------ *)
(* Workload engine                                                    *)
(* ------------------------------------------------------------------ *)

let test_workload_serial_phase_latency_bound () =
  (* 100 dependent reads with no think time: elapsed ~ 100 x latency. *)
  let sim = Sim.create () in
  let path = local_path sim in
  let elapsed = ref Time.zero in
  Workload.run sim path
    [ Workload.Serial { ios = 100; think = Time.zero; read_ratio = 1.0; bytes = 4096 } ]
    (fun ~elapsed:e -> elapsed := e);
  ignore (Sim.run sim);
  let ms = Time.to_float_ms !elapsed in
  (* ~100 x 78us = 7.8ms *)
  Alcotest.(check bool) (Printf.sprintf "serial elapsed %.1fms in [6,11]" ms) true
    (ms > 6.0 && ms < 11.0)

let test_workload_parallel_phase_demand_bound () =
  (* 10K IOs at 100K demand with a wide window: elapsed ~ 100ms. *)
  let sim = Sim.create () in
  let path = local_path sim in
  let elapsed = ref Time.zero in
  Workload.run sim path
    [
      Workload.Parallel
        { ios = 10_000; demand_iops = 100_000.0; window = 64; read_ratio = 1.0; bytes = 4096 };
    ]
    (fun ~elapsed:e -> elapsed := e);
  ignore (Sim.run sim);
  let ms = Time.to_float_ms !elapsed in
  Alcotest.(check bool) (Printf.sprintf "parallel elapsed %.1fms ~ 100" ms) true
    (ms > 95.0 && ms < 115.0)

let test_workload_phases_sequential () =
  let sim = Sim.create () in
  let path = local_path sim in
  let elapsed = ref Time.zero in
  let phases =
    [
      Workload.Serial { ios = 10; think = Time.us 100; read_ratio = 1.0; bytes = 4096 };
      Workload.Serial { ios = 10; think = Time.us 100; read_ratio = 0.0; bytes = 4096 };
    ]
  in
  Alcotest.(check int) "total_ios" 20 (Workload.total_ios phases);
  Workload.run sim path phases (fun ~elapsed:e -> elapsed := e);
  ignore (Sim.run sim);
  Alcotest.(check bool) "both phases ran" true Time.(!elapsed > Time.ms 1)

let test_workload_window_throttles () =
  (* A tight window against a slow path caps throughput below demand:
     window 1 -> closed loop at ~1/latency. *)
  let sim = Sim.create () in
  let path = local_path sim in
  let elapsed = ref Time.zero in
  Workload.run sim path
    [
      Workload.Parallel
        { ios = 500; demand_iops = 1_000_000.0; window = 1; read_ratio = 1.0; bytes = 4096 };
    ]
    (fun ~elapsed:e -> elapsed := e);
  ignore (Sim.run sim);
  let ms = Time.to_float_ms !elapsed in
  (* 500 x ~78us = ~39ms, far above 500/1M = 0.5ms. *)
  Alcotest.(check bool) (Printf.sprintf "window-bound %.1fms > 30" ms) true (ms > 30.0)

(* ------------------------------------------------------------------ *)
(* Fio                                                                *)
(* ------------------------------------------------------------------ *)

let test_fio_reports_throughput () =
  let sim = Sim.create () in
  let path = local_path sim in
  let result = ref None in
  Fio.run sim path ~threads:2 ~qd:8 ~bytes:4096 ~duration:(Time.ms 100) () (fun r ->
      result := Some r);
  ignore (Sim.run sim);
  match !result with
  | Some r ->
    Alcotest.(check bool) "iops positive" true (r.Fio.iops > 10_000.0);
    Alcotest.(check (float 1e-6)) "mbps consistent" (r.Fio.iops *. 4096.0 /. 1e6) r.Fio.mbps;
    Alcotest.(check bool) "p95 >= mean" true (r.Fio.p95_us >= r.Fio.mean_us);
    Alcotest.(check bool) "completed counted" true (r.Fio.completed > 0)
  | None -> Alcotest.fail "fio did not finish"

let test_fio_thread_cpu_cap () =
  (* One FIO thread at 7us/IO caps near 140K IOPS even at deep qd. *)
  let sim = Sim.create () in
  let path = local_path sim in
  let result = ref None in
  Fio.run sim path ~threads:1 ~qd:64 ~bytes:4096 ~duration:(Time.ms 100) () (fun r ->
      result := Some r);
  ignore (Sim.run sim);
  match !result with
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "single thread %.0fK in [110K,150K]" (r.Fio.iops /. 1e3))
      true
      (r.Fio.iops > 110e3 && r.Fio.iops < 150e3)
  | None -> Alcotest.fail "fio did not finish"

(* ------------------------------------------------------------------ *)
(* FlashX / RocksDB                                                   *)
(* ------------------------------------------------------------------ *)

let test_flashx_benchmarks_complete () =
  List.iter
    (fun bench ->
      let sim = Sim.create () in
      let path = local_path sim in
      let done_ = ref false in
      Flashx.run sim path bench (fun ~elapsed ->
          done_ := true;
          Alcotest.(check bool)
            (bench.Flashx.name ^ " took real time")
            true
            Time.(elapsed > Time.ms 10));
      ignore (Sim.run sim);
      Alcotest.(check bool) (bench.Flashx.name ^ " completed") true !done_)
    Flashx.all

let test_rocksdb_benchmarks_complete () =
  List.iter
    (fun bench ->
      let sim = Sim.create () in
      let path = local_path sim in
      let done_ = ref false in
      Rocksdb.run sim path bench (fun ~elapsed ->
          done_ := true;
          Alcotest.(check bool)
            (bench.Rocksdb.name ^ " took real time")
            true
            Time.(elapsed > Time.ms 10));
      ignore (Sim.run sim);
      Alcotest.(check bool) (bench.Rocksdb.name ^ " completed") true !done_)
    Rocksdb.all

let test_bfs_latency_sensitive () =
  (* BFS must slow down more than WCC when per-IO latency rises — the
     qualitative contrast behind Figure 7b. *)
  let elapsed_on bench path_of =
    let sim = Sim.create () in
    let path = path_of sim in
    let e = ref Time.zero in
    Flashx.run sim path bench (fun ~elapsed -> e := elapsed);
    ignore (Sim.run sim);
    Time.to_float_ms !e
  in
  let slow bench =
    let sim_local = elapsed_on bench local_path in
    let remote sim =
      (* iSCSI-flavoured slow path: higher per-IO latency and a 70K cap. *)
      let fabric = Reflex_net.Fabric.create sim () in
      let server =
        Reflex_baselines.Baseline_server.create sim ~fabric
          ~kind:Reflex_baselines.Baseline_server.Iscsi ~n_threads:1 ()
      in
      let path = ref None in
      Access_path.remote sim fabric
        ~server_host:(Reflex_baselines.Baseline_server.host server)
        ~accept:(Reflex_baselines.Baseline_server.accept server)
        ~n_contexts:3 ~tenant:1 ()
        (fun p -> path := Some p);
      ignore (Sim.run sim);
      Option.get !path
    in
    elapsed_on bench remote /. sim_local
  in
  let wcc = slow Flashx.wcc and bfs = slow Flashx.bfs in
  Alcotest.(check bool)
    (Printf.sprintf "BFS slowdown %.2f > WCC %.2f" bfs wcc)
    true (bfs > wcc)

let suite =
  [
    ( "access_path",
      [
        Alcotest.test_case "local submit" `Quick test_access_path_local;
        Alcotest.test_case "remote submit" `Quick test_access_path_remote;
      ] );
    ( "workload",
      [
        Alcotest.test_case "serial phase latency-bound" `Quick
          test_workload_serial_phase_latency_bound;
        Alcotest.test_case "parallel phase demand-bound" `Quick
          test_workload_parallel_phase_demand_bound;
        Alcotest.test_case "phases run sequentially" `Quick test_workload_phases_sequential;
        Alcotest.test_case "window throttles" `Quick test_workload_window_throttles;
      ] );
    ( "fio",
      [
        Alcotest.test_case "reports consistent results" `Quick test_fio_reports_throughput;
        Alcotest.test_case "per-thread CPU cap ~140K" `Quick test_fio_thread_cpu_cap;
      ] );
    ( "flashx",
      [
        Alcotest.test_case "all benchmarks complete" `Slow test_flashx_benchmarks_complete;
        Alcotest.test_case "BFS more latency-sensitive than WCC" `Slow test_bfs_latency_sensitive;
      ] );
    ( "rocksdb",
      [ Alcotest.test_case "all benchmarks complete" `Slow test_rocksdb_benchmarks_complete ] );
  ]
