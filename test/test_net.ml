(* Tests for the network substrate. *)

open Reflex_engine
open Reflex_net

let make_fabric ?(bandwidth_gbps = 10.0) () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim ~bandwidth_gbps () in
  (sim, fabric)

(* ------------------------------------------------------------------ *)
(* Stack_model                                                        *)
(* ------------------------------------------------------------------ *)

let test_stack_presets () =
  Alcotest.(check bool) "ix polls" true Stack_model.ix_client.Stack_model.polling;
  Alcotest.(check bool) "linux does not poll" false Stack_model.linux_client.Stack_model.polling;
  Alcotest.(check bool) "linux coalesces 20us" true
    (Time.equal Stack_model.linux_client.Stack_model.coalesce (Time.us 20));
  Alcotest.(check bool) "linux TCP ~70K msgs/thread" true
    (Stack_model.linux_client.Stack_model.max_msgs_per_sec = 70e3);
  Alcotest.(check bool) "iscsi slowest" true
    Time.(
      Stack_model.iscsi_server.Stack_model.rx_overhead
      > Stack_model.linux_server.Stack_model.rx_overhead)

let test_stack_delays () =
  let prng = Prng.create 1L in
  let sum_ix = ref Time.zero and sum_linux = ref Time.zero in
  for _ = 1 to 1000 do
    sum_ix := Time.add !sum_ix (Stack_model.rx_delay Stack_model.ix_client prng);
    sum_linux := Time.add !sum_linux (Stack_model.rx_delay Stack_model.linux_client prng)
  done;
  let mean_ix = Time.to_float_us !sum_ix /. 1000.0 in
  let mean_linux = Time.to_float_us !sum_linux /. 1000.0 in
  (* IX: fixed 1.5us. Linux: 4 + U(0,20) + exp(8) ~ 22us on average. *)
  Alcotest.(check (float 0.01)) "ix rx fixed" 1.5 mean_ix;
  Alcotest.(check bool)
    (Printf.sprintf "linux rx mean %.1f in [18,26]" mean_linux)
    true
    (mean_linux > 18.0 && mean_linux < 26.0)

(* ------------------------------------------------------------------ *)
(* Fabric                                                             *)
(* ------------------------------------------------------------------ *)

let test_serialization_time () =
  let _, fabric = make_fabric () in
  (* 4096 B at 10 Gb/s = 3276.8 ns *)
  let t = Fabric.serialization_time fabric ~bytes:4096 in
  Alcotest.check Test_util.time "4KB at 10GbE" (Time.ns 3277) t

let test_transmit_latency () =
  let sim, fabric = make_fabric () in
  let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
  let b = Fabric.add_host fabric ~name:"b" ~stack:Stack_model.ix_client in
  let arrival = ref Time.zero in
  Fabric.transmit fabric ~src:a ~dst:b ~bytes:4096 (fun _ -> arrival := Sim.now sim) 0;
  ignore (Sim.run sim);
  (* 2 x 3.28us serialization + 2 x 0.7 NIC + 1.2 switch + 1.5 rx stack ~ 10.3us *)
  let us = Time.to_float_us !arrival in
  Alcotest.(check bool) (Printf.sprintf "one-way %.2fus in [9,12]" us) true (us > 9.0 && us < 12.0)

let test_bandwidth_cap () =
  let sim, fabric = make_fabric () in
  let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
  let b = Fabric.add_host fabric ~name:"b" ~stack:Stack_model.ix_client in
  let delivered = ref 0 in
  (* Offer 600K x 4KB/s for 100ms = 2.4GB/s >> 1.25GB/s line rate. *)
  let n = 60_000 in
  for i = 0 to n - 1 do
    ignore
      (Sim.at sim (Time.of_float_ns (float_of_int i *. 1666.0)) (fun () ->
           Fabric.transmit fabric ~src:a ~dst:b ~bytes:4096 (fun _ -> incr delivered) 0))
  done;
  ignore (Sim.run ~until:(Time.ms 100) sim);
  let rate_mbs = float_of_int (!delivered * 4096) /. 0.1 /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f MB/s ~ line rate" rate_mbs)
    true
    (rate_mbs > 1_100.0 && rate_mbs < 1_300.0)

let test_byte_accounting () =
  let sim, fabric = make_fabric () in
  let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
  let b = Fabric.add_host fabric ~name:"b" ~stack:Stack_model.ix_client in
  Fabric.transmit fabric ~src:a ~dst:b ~bytes:1000 ignore 0;
  Fabric.transmit fabric ~src:a ~dst:b ~bytes:2000 ignore 0;
  ignore (Sim.run sim);
  Alcotest.(check int) "sent" 3000 (Fabric.bytes_sent a);
  Alcotest.(check int) "received" 3000 (Fabric.bytes_received b);
  Alcotest.(check string) "name" "a" (Fabric.host_name a)

(* With a delivery continuation made once, a transmission allocates
   nothing in steady state: the message rides the fabric's in-flight
   arena between stages.  The first batch grows the arena, the link
   rings and the event arena (cold paths). *)
let test_transmit_allocation_free () =
  let sim, fabric = make_fabric () in
  let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
  let b = Fabric.add_host fabric ~name:"b" ~stack:Stack_model.ix_client in
  let delivered = ref 0 in
  let k arg = delivered := !delivered + arg in
  let batch () =
    for _ = 1 to 64 do
      Fabric.transmit fabric ~src:a ~dst:b ~bytes:1024 k 1
    done;
    ignore (Sim.run sim)
  in
  batch ();
  let words = Test_util.minor_words (fun () -> for _ = 1 to 50 do batch () done) in
  Alcotest.(check int) "every message delivered" (51 * 64) !delivered;
  Alcotest.(check (float 0.0)) "minor words for 3200 transmissions" 0.0 words

(* ------------------------------------------------------------------ *)
(* Tcp_conn                                                           *)
(* ------------------------------------------------------------------ *)

let test_conn_roundtrip () =
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"client" ~stack:Stack_model.ix_client in
  let server = Fabric.add_host fabric ~name:"server" ~stack:Stack_model.dataplane_server in
  let conn = Tcp_conn.connect fabric ~client ~server in
  let rtt = ref Time.zero in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ ->
      Alcotest.(check string) "request content" "ping" msg;
      Tcp_conn.send_to_client conn ~size:4124 "pong");
  Tcp_conn.set_client_handler conn (fun msg ~size ->
      Alcotest.(check string) "response content" "pong" msg;
      Alcotest.(check int) "response size" 4124 size;
      rtt := Sim.now sim);
  Tcp_conn.send_to_server conn ~size:28 "ping";
  ignore (Sim.run sim);
  let us = Time.to_float_us !rtt in
  (* small request + 4KB response between polling endpoints: ~15-25us *)
  Alcotest.(check bool) (Printf.sprintf "RTT %.1fus plausible" us) true (us > 10.0 && us < 30.0);
  Alcotest.(check int) "counters" 1 (Tcp_conn.delivered_to_server conn);
  Alcotest.(check int) "counters" 1 (Tcp_conn.delivered_to_client conn)

let test_conn_fifo_under_jitter () =
  (* Linux receive jitter (coalescing + wakeups) must not reorder a
     connection's byte stream. *)
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"client" ~stack:Stack_model.linux_client in
  let server = Fabric.add_host fabric ~name:"server" ~stack:Stack_model.linux_server in
  let conn = Tcp_conn.connect fabric ~client ~server in
  let received = ref [] in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ -> received := msg :: !received);
  let n = 500 in
  for i = 1 to n do
    ignore
      (Sim.at sim (Time.of_float_us (float_of_int i *. 0.9)) (fun () ->
           Tcp_conn.send_to_server conn ~size:64 i))
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "in-order delivery" (List.init n (fun i -> i + 1))
    (List.rev !received)

let test_conn_handler_installed_late () =
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"c" ~stack:Stack_model.ix_client in
  let server = Fabric.add_host fabric ~name:"s" ~stack:Stack_model.ix_client in
  let conn = Tcp_conn.connect fabric ~client ~server in
  Tcp_conn.send_to_server conn ~size:28 "early";
  ignore (Sim.run sim);
  let got = ref None in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ -> got := Some msg);
  Alcotest.(check (option string)) "queued message replayed" (Some "early") !got

(* A send allocates nothing in steady state either: the message waits in
   the reassembly ring at its sequence number, which is the only thing
   the stack-delay event and the fabric carry. *)
let test_conn_send_allocation_free () =
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"c" ~stack:Stack_model.ix_client in
  let server = Fabric.add_host fabric ~name:"s" ~stack:Stack_model.dataplane_server in
  let conn = Tcp_conn.connect fabric ~client ~server in
  let sum = ref 0 in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ -> sum := !sum + msg);
  let batch () =
    for i = 1 to 64 do
      Tcp_conn.send_to_server conn ~size:64 i
    done;
    ignore (Sim.run sim)
  in
  batch ();
  let words = Test_util.minor_words (fun () -> for _ = 1 to 50 do batch () done) in
  Alcotest.(check int) "every message handled" (51 * 64 * 65 / 2) !sum;
  Alcotest.(check (float 0.0)) "minor words for 3200 sends" 0.0 words

(* Receive jitter reorders raw deliveries, loss delays some messages by
   an RTO and duplication delivers some twice; bursts widen the window
   so the ring grows mid-stream.  Reassembly must still hand every
   message to the handler exactly once, in send order. *)
let prop_reassembly_exactly_once_in_order =
  QCheck.Test.make ~name:"reassembly ring: exactly once, in order, under faults" ~count:60
    QCheck.(
      quad (int_range 1 6) (int_range 0 40) (int_range 0 40)
        (list_of_size Gen.(int_range 1 40) (pair (int_range 0 30) (int_range 1 24))))
    (fun (seed, loss_pct, dup_pct, bursts) ->
      let sim, fabric = make_fabric () in
      let client = Fabric.add_host fabric ~name:"c" ~stack:Stack_model.linux_client in
      let server = Fabric.add_host fabric ~name:"s" ~stack:Stack_model.linux_server in
      Fabric.set_fault_prng fabric (Prng.create (Int64.of_int seed));
      Fabric.set_loss fabric ~prob:(float_of_int loss_pct /. 100.0) ~rto:(Time.us 200);
      Fabric.set_dup fabric ~prob:(float_of_int dup_pct /. 100.0);
      let conn = Tcp_conn.connect fabric ~client ~server in
      let received = ref [] in
      Tcp_conn.set_server_handler conn (fun msg ~size:_ -> received := msg :: !received);
      let next = ref 0 and at = ref Time.zero in
      List.iter
        (fun (gap_us, burst) ->
          at := Time.add !at (Time.us gap_us);
          ignore
            (Sim.at sim !at (fun () ->
                 for _ = 1 to burst do
                   incr next;
                   Tcp_conn.send_to_server conn ~size:64 !next
                 done)))
        bursts;
      ignore (Sim.run sim);
      List.rev !received = List.init !next (fun i -> i + 1)
      && Tcp_conn.delivered_to_server conn = !next)

(* A delivered message is released: its ring slot takes the fixed filler
   (the endpoint's first message), so after a full major GC nothing of
   the connection keeps it reachable. *)
let test_conn_ring_releases_delivered () =
  let sim, fabric = make_fabric () in
  let client = Fabric.add_host fabric ~name:"c" ~stack:Stack_model.ix_client in
  let server = Fabric.add_host fabric ~name:"s" ~stack:Stack_model.ix_client in
  let conn = Tcp_conn.connect fabric ~client ~server in
  let got = ref 0 in
  Tcp_conn.set_server_handler conn (fun msg ~size:_ -> got := !got + !msg);
  Tcp_conn.send_to_server conn ~size:64 (ref 0);
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let msg = ref (i + 1) in
    Weak.set w i (Some msg);
    Tcp_conn.send_to_server conn ~size:64 msg
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "all delivered" 36 !got;
  Gc.full_major ();
  for i = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "message %d collected" (i + 1)) false (Weak.check w i)
  done;
  ignore (Sys.opaque_identity conn)

let test_linux_slower_than_ix () =
  (* One-way delivery time: Linux receiver should be slower on average
     than an IX receiver (interrupt coalescing + wakeup). *)
  let one_way stack =
    let sim, fabric = make_fabric () in
    let a = Fabric.add_host fabric ~name:"a" ~stack:Stack_model.ix_client in
    let b = Fabric.add_host fabric ~name:"b" ~stack in
    let sum = ref 0.0 and n = 200 in
    for i = 0 to n - 1 do
      ignore
        (Sim.at sim (Time.us (i * 100)) (fun () ->
             let sent = Sim.now sim in
             Fabric.transmit fabric ~src:a ~dst:b ~bytes:4096
               (fun _ -> sum := !sum +. Time.to_float_us (Time.diff (Sim.now sim) sent))
               0))
    done;
    ignore (Sim.run sim);
    !sum /. float_of_int n
  in
  let ix = one_way Stack_model.ix_client in
  let linux = one_way Stack_model.linux_client in
  Alcotest.(check bool)
    (Printf.sprintf "linux %.1fus > ix %.1fus + 10" linux ix)
    true
    (linux > ix +. 10.0)

let suite =
  [
    ( "stack_model",
      [
        Alcotest.test_case "presets" `Quick test_stack_presets;
        Alcotest.test_case "delay distributions" `Quick test_stack_delays;
      ] );
    ( "fabric",
      [
        Alcotest.test_case "serialization time" `Quick test_serialization_time;
        Alcotest.test_case "one-way latency" `Quick test_transmit_latency;
        Alcotest.test_case "10GbE bandwidth cap" `Quick test_bandwidth_cap;
        Alcotest.test_case "byte accounting" `Quick test_byte_accounting;
        Alcotest.test_case "transmit allocates nothing" `Quick test_transmit_allocation_free;
      ] );
    ( "tcp_conn",
      [
        Alcotest.test_case "request/response roundtrip" `Quick test_conn_roundtrip;
        Alcotest.test_case "FIFO under receive jitter" `Quick test_conn_fifo_under_jitter;
        Alcotest.test_case "late handler replays queue" `Quick test_conn_handler_installed_late;
        Alcotest.test_case "linux receiver slower than ix" `Quick test_linux_slower_than_ix;
        Alcotest.test_case "send allocates nothing" `Quick test_conn_send_allocation_free;
        Alcotest.test_case "ring releases delivered messages" `Quick
          test_conn_ring_releases_delivered;
        QCheck_alcotest.to_alcotest prop_reassembly_exactly_once_in_order;
      ] );
  ]
