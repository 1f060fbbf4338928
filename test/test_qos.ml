(* Tests for the QoS machinery: SLOs, cost model, token accounting and the
   Algorithm-1 scheduler. *)

open Reflex_engine
open Reflex_flash
open Reflex_qos

(* ------------------------------------------------------------------ *)
(* Slo                                                                *)
(* ------------------------------------------------------------------ *)

let test_slo_constructors () =
  let lc = Slo.latency_critical ~latency_us:500 ~iops:50_000.0 ~read_pct:80 in
  Alcotest.(check bool) "lc" true (Slo.is_latency_critical lc);
  Alcotest.(check (float 1e-9)) "read ratio" 0.8 (Slo.read_ratio lc);
  let be = Slo.best_effort ~read_pct:25 () in
  Alcotest.(check bool) "be" false (Slo.is_latency_critical be);
  Alcotest.check_raises "bad read_pct" (Invalid_argument "Slo: read_pct must be in 0..100")
    (fun () -> ignore (Slo.latency_critical ~latency_us:500 ~iops:1.0 ~read_pct:101));
  Alcotest.check_raises "bad iops"
    (Invalid_argument "Slo.latency_critical: non-positive IOPS") (fun () ->
      ignore (Slo.latency_critical ~latency_us:500 ~iops:0.0 ~read_pct:50))

(* ------------------------------------------------------------------ *)
(* Cost_model                                                         *)
(* ------------------------------------------------------------------ *)

let model_a = Cost_model.of_profile Device_profile.device_a

let test_cost_basic () =
  Alcotest.(check (float 1e-9)) "4KB mixed read = 1 token" 1.0
    (Cost_model.request_cost model_a ~kind:Io_op.Read ~bytes:4096 ~read_only:false);
  Alcotest.(check (float 1e-9)) "4KB RO read = 1/2 token" 0.5
    (Cost_model.request_cost model_a ~kind:Io_op.Read ~bytes:4096 ~read_only:true);
  Alcotest.(check (float 1e-9)) "4KB write = 10 tokens" 10.0
    (Cost_model.request_cost model_a ~kind:Io_op.Write ~bytes:4096 ~read_only:false);
  (* Paper: a 32KB request costs as much as 8 back-to-back 4KB requests. *)
  Alcotest.(check (float 1e-9)) "32KB read = 8 tokens" 8.0
    (Cost_model.request_cost model_a ~kind:Io_op.Read ~bytes:32768 ~read_only:false);
  (* Cost is constant for requests 4KB and smaller. *)
  Alcotest.(check (float 1e-9)) "1KB read = 1 token" 1.0
    (Cost_model.request_cost model_a ~kind:Io_op.Read ~bytes:1024 ~read_only:false)

let test_weighted_rate_paper_example () =
  (* Paper SS3.2.2: 100K IOPS at 80% reads, write cost 10
     -> 0.8*100K*1 + 0.2*100K*10 = 280K tokens/s. *)
  Alcotest.(check (float 1.0)) "280K tokens/s" 280_000.0
    (Cost_model.weighted_rate model_a ~iops:100_000.0 ~read_ratio:0.8);
  (* Scenario 1, tenant B: 70K IOPS at 80% reads -> 196K tokens/s. *)
  Alcotest.(check (float 1.0)) "196K tokens/s" 196_000.0
    (Cost_model.weighted_rate model_a ~iops:70_000.0 ~read_ratio:0.8)

let test_cost_of_fitted () =
  let fitted =
    { Calibrate.write_cost = 9.5; ro_read_cost = 0.52; token_rate = 5e5; fit_r2 = 0.99 }
  in
  let m = Cost_model.of_fitted fitted in
  Alcotest.(check (float 1e-9)) "write cost carried" 9.5
    (Cost_model.request_cost m ~kind:Io_op.Write ~bytes:4096 ~read_only:false)

(* ------------------------------------------------------------------ *)
(* Global_bucket                                                      *)
(* ------------------------------------------------------------------ *)

(* The scheduler's round is the only writer of the bucket's level besides
   the reset; tests seed it through the same cell. *)
let donate global x =
  let level = Global_bucket.cell global in
  level.tokens <- level.tokens +. x

let new_sched ?neg_limit ?notify ?(n_threads = 1) ?(thread_id = 0) () =
  let global = Global_bucket.create ~n_threads in
  let sched =
    Scheduler.create ?neg_limit ~global ~thread_id ?notify_control_plane:notify ()
  in
  (global, sched)

let test_bucket_add_take () =
  (* A BE tenant with no rate of its own claims its deficit from the
     bucket, at most what is there; the level never goes below zero.
     Thread 1 never marks, so the bucket is not reset between rounds. *)
  let global, sched = new_sched ~n_threads:2 () in
  let be = Tenant.create ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:0.0 in
  Scheduler.add_tenant sched be;
  donate global 10.0;
  let round us = Scheduler.schedule sched ~now:(Time.us us) ~submit:(fun _ -> ()) in
  Scheduler.enqueue sched ~tenant_id:1 ~cost:4.0 ();
  Alcotest.(check int) "claim pays the request" 1 (round 100);
  Alcotest.(check (float 1e-9)) "partial take" 6.0 (Global_bucket.level global);
  Scheduler.enqueue sched ~tenant_id:1 ~cost:100.0 ();
  Alcotest.(check int) "deficit beyond the level" 0 (round 200);
  Alcotest.(check (float 1e-9)) "take beyond level empties it" 0.0 (Global_bucket.level global);
  Alcotest.(check (float 1e-9)) "tenant holds what it took" 6.0 (Tenant.tokens be);
  ignore (round 300);
  Alcotest.(check (float 1e-9)) "empty bucket gives nothing" 6.0 (Tenant.tokens be);
  Alcotest.(check (float 1e-9)) "level stays at zero" 0.0 (Global_bucket.level global)

let test_bucket_reset_last_thread () =
  let b = Global_bucket.create ~n_threads:3 in
  donate b 100.0;
  Alcotest.(check bool) "thread 0 marks" false (Global_bucket.mark_round b ~thread_id:0);
  Alcotest.(check bool) "thread 2 marks" false (Global_bucket.mark_round b ~thread_id:2);
  Alcotest.(check (float 1e-9)) "not reset yet" 100.0 (Global_bucket.level b);
  Alcotest.(check bool) "last thread resets" true (Global_bucket.mark_round b ~thread_id:1);
  Alcotest.(check (float 1e-9)) "reset to zero" 0.0 (Global_bucket.level b);
  Alcotest.(check int) "reset counted" 1 (Global_bucket.resets b);
  (* Marks clear after a reset: a full new round is needed. *)
  donate b 5.0;
  Alcotest.(check bool) "fresh round" false (Global_bucket.mark_round b ~thread_id:0);
  Alcotest.(check (float 1e-9)) "still there" 5.0 (Global_bucket.level b)

(* ------------------------------------------------------------------ *)
(* Tenant                                                             *)
(* ------------------------------------------------------------------ *)

let lc_slo = Slo.latency_critical ~latency_us:500 ~iops:100_000.0 ~read_pct:80

let test_tenant_queue () =
  let t = Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0 in
  let a = Tenant.acct t in
  Alcotest.(check (float 1e-9)) "no demand" 0.0 (Tenant.demand t);
  Alcotest.(check (float 0.0)) "empty queue has no head cost" 0.0 a.head_cost;
  Tenant.enqueue t ~cost:1.0 "a";
  Tenant.enqueue t ~cost:10.0 "b";
  Alcotest.(check (float 1e-9)) "demand sums costs" 11.0 (Tenant.demand t);
  Alcotest.(check (float 0.0)) "head cost" 1.0 a.head_cost;
  Alcotest.(check string) "fifo value" "a" (Tenant.pop t);
  Alcotest.(check (float 0.0)) "next head cost" 10.0 a.head_cost;
  Alcotest.(check (float 1e-9)) "demand shrinks" 10.0 (Tenant.demand t);
  Alcotest.(check int) "length" 1 (Tenant.queue_length t);
  Alcotest.check_raises "non-positive cost" (Invalid_argument "Tenant.enqueue: non-positive cost")
    (fun () -> Tenant.enqueue t ~cost:0.0 "c")

(* One round at [us] microseconds. *)
let round_at sched us = ignore (Scheduler.schedule sched ~now:(Time.us us) ~submit:(fun _ -> ()))

let test_tenant_pos_limit_window () =
  (* POS_LIMIT is the sum of the last three rounds' grants: an idle LC
     tenant keeps a balance up to it and donates 90% of a balance above
     it (thread 1 never marks, so the bucket keeps the donations).
     20 tokens/s at round spacings of 0.5, 1, 1.5 and 2 s grants exactly
     10, 20, 30 and 40 tokens (the first round grants none). *)
  let global, sched = new_sched ~n_threads:2 () in
  let t = Tenant.create ~id:1 ~slo:lc_slo ~token_rate:20.0 in
  Scheduler.add_tenant sched t;
  List.iter (round_at sched) [ 500_000; 1_000_000; 2_000_000; 3_500_000 ];
  Alcotest.(check (float 1e-9)) "balance of 60 = 3-round sum, kept" 60.0 (Tenant.tokens t);
  Alcotest.(check (float 1e-9)) "nothing donated" 0.0 (Global_bucket.level global);
  round_at sched 5_500_000;
  (* Oldest (10) falls out of the window: 100 > 20 + 30 + 40. *)
  Alcotest.(check (float 1e-9)) "sliding window: 90% donated" 90.0 (Global_bucket.level global);
  Alcotest.(check (float 1e-9)) "10% kept" 10.0 (Tenant.tokens t)

let test_tenant_tokens () =
  (* An LC balance may go negative (down to NEG_LIMIT) to pay for a
     request; an idle BE balance is drained into the global bucket. *)
  let global, sched = new_sched ~n_threads:2 () in
  let lc = Tenant.create ~id:1 ~slo:lc_slo ~token_rate:20.0 in
  let be = Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:20.0 in
  Scheduler.add_tenant sched lc;
  Scheduler.add_tenant sched be;
  round_at sched 500_000;
  Scheduler.enqueue sched ~tenant_id:1 ~cost:15.0 ();
  round_at sched 1_000_000;
  Alcotest.(check (float 1e-9)) "can go negative" (-5.0) (Tenant.tokens lc);
  Alcotest.(check (float 1e-9)) "submission debited" 15.0 (Tenant.submitted_cost_total lc);
  Alcotest.(check (float 1e-9)) "drained" 0.0 (Tenant.tokens be);
  Alcotest.(check (float 1e-9)) "into the bucket" 10.0 (Global_bucket.level global)

(* Popped requests are not kept alive by the ring: a vacated slot is
   overwritten with the tenant's first request. *)
let test_tenant_ring_releases_popped () =
  let t = Tenant.create ~id:1 ~slo:lc_slo ~token_rate:1.0 in
  let w = Weak.create 8 in
  for k = 0 to 7 do
    let r = ref k in
    Weak.set w k (Some r);
    Tenant.enqueue t ~cost:1.0 r
  done;
  for _ = 0 to 7 do
    ignore (Tenant.pop t)
  done;
  Gc.full_major ();
  let live = List.filter (Weak.check w) (List.init 8 Fun.id) in
  Alcotest.(check (list int)) "only the filler survives" [ 0 ] live;
  (* [t] is live across the collection. *)
  Alcotest.(check int) "ring empty" 0 (Tenant.queue_length t)

(* ------------------------------------------------------------------ *)
(* Scheduler (Algorithm 1)                                            *)
(* ------------------------------------------------------------------ *)

(* Drive [rounds] scheduling rounds at [round_us] spacing; before each
   round, [feed round_idx sched] may enqueue requests.  Returns the list
   of submissions in order. *)
let run_rounds ?(rounds = 100) ?(round_us = 100) sched ~feed =
  let out = ref [] in
  for i = 0 to rounds - 1 do
    feed i sched;
    let now = Time.us ((i + 1) * round_us) in
    ignore (Scheduler.schedule sched ~now ~submit:(fun s -> out := s :: !out))
  done;
  List.rev !out

let count_for id subs =
  List.length (List.filter (fun s -> s.Scheduler.tenant_id = id) subs)

let test_lc_within_slo_all_submitted () =
  (* An LC tenant issuing exactly its reserved rate gets everything
     through: 100 rounds x 100us, rate 280K tokens/s = 28 tokens/round;
     feed 20 x 1-token reads per round. *)
  let _, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        for _ = 1 to 20 do
          Scheduler.enqueue s ~tenant_id:1 ~cost:1.0 ()
        done)
  in
  Alcotest.(check int) "all requests submitted" 2000 (List.length subs);
  Alcotest.(check (float 1e-6)) "no backlog" 0.0 (Scheduler.backlog sched)

let test_lc_rate_limited_at_neg_limit () =
  (* An LC tenant demanding far beyond its reservation is throttled to
     roughly its token rate (plus the bounded NEG_LIMIT burst). *)
  let notified = ref 0 in
  let _, sched = new_sched ~notify:(fun _ -> incr notified) () in
  (* 10K tokens/s = 1 token/round at 100us rounds. *)
  Scheduler.add_tenant sched
    (Tenant.create ~id:1
       ~slo:(Slo.latency_critical ~latency_us:500 ~iops:10_000.0 ~read_pct:100)
       ~token_rate:10_000.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        for _ = 1 to 20 do
          Scheduler.enqueue s ~tenant_id:1 ~cost:3.0 ()
        done)
  in
  (* Generated: 99 rounds x 1 token (the first round generates none as
     there is no prior timestamp), plus the 50-token deficit allowance:
     ~149 tokens for 3-token requests -> ~50 submissions. *)
  let n = List.length subs in
  Alcotest.(check bool) (Printf.sprintf "throttled (%d in [45,60])" n) true (n >= 45 && n <= 60);
  Alcotest.(check bool) "control plane notified of deficit" true (!notified > 0)

let test_lc_writes_cost_more () =
  (* With write cost 10, an 80%-read LC tenant fed uniformly needs its
     weighted rate; at half that rate only about half the requests go. *)
  let _, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:140_000.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        (* 28 tokens of demand per round: 20 reads + 2 writes at 10. *)
        for _ = 1 to 16 do
          Scheduler.enqueue s ~tenant_id:1 ~cost:1.0 ()
        done;
        Scheduler.enqueue s ~tenant_id:1 ~cost:10.0 ();
        Scheduler.enqueue s ~tenant_id:1 ~cost:10.0 ())
  in
  (* 14 tokens/round generated vs 36 demanded: ~40% served. *)
  let served = float_of_int (List.length subs) /. 1800.0 in
  Alcotest.(check bool)
    (Printf.sprintf "served fraction %.2f in [0.3,0.5]" served)
    true
    (served > 0.3 && served < 0.5)

let test_lc_spare_tokens_donated () =
  (* An idle LC tenant's accumulating balance must overflow into the
     global bucket once past POS_LIMIT (90% donation). *)
  let global, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  ignore (Scheduler.schedule sched ~now:(Time.us 100) ~submit:(fun _ -> ()));
  ignore (Scheduler.schedule sched ~now:(Time.us 200) ~submit:(fun _ -> ()));
  (* Bucket resets every round with one thread, so check inside a round:
     generate a large grant then look before the next mark... instead use
     two threads so this thread's marks never reset alone. *)
  ignore global;
  let global2 = Global_bucket.create ~n_threads:2 in
  let sched2 = Scheduler.create ~global:global2 ~thread_id:0 () in
  Scheduler.add_tenant sched2 (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  for i = 1 to 10 do
    ignore (Scheduler.schedule sched2 ~now:(Time.us (i * 100)) ~submit:(fun _ -> ()))
  done;
  (* 9 grants of 28 tokens with no demand: balance capped near POS_LIMIT
     (3 rounds' grants = 84), the rest donated. *)
  Alcotest.(check bool)
    (Printf.sprintf "donations in bucket (%.1f > 50)" (Global_bucket.level global2))
    true
    (Global_bucket.level global2 > 50.0)

let test_be_fair_sharing () =
  (* Two BE tenants with equal rates and saturating demand split service
     evenly. *)
  let _, sched = new_sched () in
  let be_slo = Slo.best_effort () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:be_slo ~token_rate:50_000.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:be_slo ~token_rate:50_000.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        for _ = 1 to 20 do
          Scheduler.enqueue s ~tenant_id:1 ~cost:1.0 ();
          Scheduler.enqueue s ~tenant_id:2 ~cost:1.0 ()
        done)
  in
  let c1 = count_for 1 subs and c2 = count_for 2 subs in
  Alcotest.(check bool)
    (Printf.sprintf "even split (%d vs %d)" c1 c2)
    true
    (abs (c1 - c2) <= c1 / 20);
  (* 5 tokens/round each -> ~500 submissions each. *)
  Alcotest.(check bool) "rate respected" true (c1 <= 550 && c1 >= 450)

let test_be_no_burst_after_idle () =
  (* DRR rule: a BE tenant idle for many rounds must not accumulate
     tokens and burst later. *)
  let _, sched = new_sched () in
  Scheduler.add_tenant sched
    (Tenant.create ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:100_000.0);
  (* 50 idle rounds (10 tokens/round generated, all flushed), then heavy
     demand: the first busy round may spend only that round's grant. *)
  let subs =
    run_rounds ~rounds:51 sched ~feed:(fun i s ->
        if i = 50 then
          for _ = 1 to 1000 do
            Scheduler.enqueue s ~tenant_id:1 ~cost:1.0 ()
          done)
  in
  let n = List.length subs in
  Alcotest.(check bool)
    (Printf.sprintf "no post-idle burst (%d <= 12)" n)
    true (n <= 12)

let test_be_claims_lc_leftovers () =
  (* Work conservation: an idle LC tenant's tokens flow via the global
     bucket to a BE tenant with zero own rate. *)
  let global = Global_bucket.create ~n_threads:2 (* avoid same-round reset *) in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  let subs =
    run_rounds sched ~feed:(fun _ s ->
        for _ = 1 to 40 do
          Scheduler.enqueue s ~tenant_id:2 ~cost:1.0 ()
        done)
  in
  let c2 = count_for 2 subs in
  (* LC generates 28/round and donates 90% once above POS_LIMIT; BE should
     capture a large share of ~2770 generated tokens. *)
  Alcotest.(check bool) (Printf.sprintf "BE served from donations (%d > 1500)" c2) true (c2 > 1500)

let test_be_round_robin_rotates () =
  (* With a single token/round in the bucket, the BE that gets it must
     rotate across rounds. *)
  let global = Global_bucket.create ~n_threads:2 in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  let winners = ref [] in
  for i = 1 to 10 do
    donate global 1.0;
    (if Scheduler.find_tenant sched 1 <> None then
       match Scheduler.find_tenant sched 1 with
       | Some t1 when Tenant.demand t1 = 0.0 -> Scheduler.enqueue sched ~tenant_id:1 ~cost:1.0 1
       | _ -> ());
    (match Scheduler.find_tenant sched 2 with
    | Some t2 when Tenant.demand t2 = 0.0 -> Scheduler.enqueue sched ~tenant_id:2 ~cost:1.0 2
    | _ -> ());
    ignore
      (Scheduler.schedule sched ~now:(Time.us (i * 100))
         ~submit:(fun s -> winners := s.Scheduler.tenant_id :: !winners))
  done;
  let w1 = List.length (List.filter (( = ) 1) !winners) in
  let w2 = List.length (List.filter (( = ) 2) !winners) in
  Alcotest.(check bool)
    (Printf.sprintf "both win some (%d vs %d)" w1 w2)
    true
    (w1 >= 3 && w2 >= 3)

let test_multi_thread_token_exchange () =
  (* Spare LC tokens on thread 0 serve BE demand on thread 1 — the
     cross-thread sharing of SS4.1. *)
  let global = Global_bucket.create ~n_threads:2 in
  let sched0 = Scheduler.create ~global ~thread_id:0 () in
  let sched1 = Scheduler.create ~global ~thread_id:1 () in
  Scheduler.add_tenant sched0 (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  Scheduler.add_tenant sched1 (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  let be_count = ref 0 in
  for i = 1 to 100 do
    for _ = 1 to 40 do
      Scheduler.enqueue sched1 ~tenant_id:2 ~cost:1.0 ()
    done;
    ignore (Scheduler.schedule sched0 ~now:(Time.us (i * 100)) ~submit:(fun _ -> ()));
    ignore
      (Scheduler.schedule sched1 ~now:(Time.us (i * 100)) ~submit:(fun _ -> incr be_count))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cross-thread donations consumed (%d > 1000)" !be_count)
    true (!be_count > 1000);
  Alcotest.(check bool) "bucket reset happened" true (Global_bucket.resets global > 10)

let test_remove_tenant () =
  let _, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:1000.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  Alcotest.(check int) "two tenants" 2 (Scheduler.tenant_count sched);
  Scheduler.remove_tenant sched 1;
  Alcotest.(check int) "one left" 1 (Scheduler.tenant_count sched);
  Alcotest.(check bool) "gone" true (Scheduler.find_tenant sched 1 = None);
  Alcotest.check_raises "enqueue to removed tenant" Not_found (fun () ->
      Scheduler.enqueue sched ~tenant_id:1 ~cost:1.0 ())

let test_remove_tenant_preserves_order_and_cursor () =
  (* Remove BE tenants from the middle of a rotating set: the compaction
     must preserve insertion order and the cursor must stay within the
     shrunk set so round-robin service continues over the survivors. *)
  let global = Global_bucket.create ~n_threads:2 in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  for id = 1 to 5 do
    Scheduler.add_tenant sched (Tenant.create ~id ~slo:(Slo.best_effort ()) ~token_rate:0.0)
  done;
  (* Advance the cursor near the end of the set... *)
  for i = 1 to 4 do
    ignore (Scheduler.schedule sched ~now:(Time.us (i * 100)) ~submit:(fun _ -> ()))
  done;
  (* ...then shrink the set below it. *)
  Scheduler.remove_tenant sched 3;
  Scheduler.remove_tenant sched 5;
  Scheduler.remove_tenant sched 1;
  Alcotest.(check (list int)) "order preserved" [ 2; 4 ]
    (List.map Tenant.id (Scheduler.tenants sched));
  (* Survivors still rotate: with one token per round, both must win. *)
  let winners = ref [] in
  for i = 5 to 14 do
    donate global 1.0;
    List.iter
      (fun id ->
        match Scheduler.find_tenant sched id with
        | Some t when Tenant.demand t = 0.0 -> Scheduler.enqueue sched ~tenant_id:id ~cost:1.0 ()
        | _ -> ())
      [ 2; 4 ];
    ignore
      (Scheduler.schedule sched ~now:(Time.us (i * 100))
         ~submit:(fun s -> winners := s.Scheduler.tenant_id :: !winners))
  done;
  let w2 = List.length (List.filter (( = ) 2) !winners) in
  let w4 = List.length (List.filter (( = ) 4) !winners) in
  Alcotest.(check bool)
    (Printf.sprintf "round-robin over survivors (%d vs %d)" w2 w4)
    true
    (w2 >= 3 && w4 >= 3);
  (* Removing everything resets cleanly; unknown ids are a no-op. *)
  Scheduler.remove_tenant sched 2;
  Scheduler.remove_tenant sched 4;
  Scheduler.remove_tenant sched 99;
  Alcotest.(check int) "empty" 0 (Scheduler.tenant_count sched);
  ignore (Scheduler.schedule sched ~now:(Time.us 10_000) ~submit:(fun _ -> ()))

let recomputed_backlog sched =
  List.fold_left (fun acc t -> acc +. Tenant.demand t) 0.0 (Scheduler.tenants sched)

let test_backlog_aggregate_tracks_demand () =
  let _, sched = new_sched () in
  Scheduler.add_tenant sched (Tenant.create ~id:1 ~slo:lc_slo ~token_rate:280_000.0);
  Scheduler.add_tenant sched (Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:0.0);
  let check msg =
    Alcotest.(check (float 1e-6)) msg (recomputed_backlog sched) (Scheduler.backlog sched)
  in
  check "empty";
  Scheduler.enqueue sched ~tenant_id:1 ~cost:1.0 ();
  Scheduler.enqueue sched ~tenant_id:2 ~cost:10.0 ();
  check "after enqueues";
  Alcotest.(check (float 1e-6)) "sums costs" 11.0 (Scheduler.backlog sched);
  (* Detach-style direct drain, bypassing the scheduler: the shared
     backlog cell keeps the aggregate honest. *)
  (match Scheduler.find_tenant sched 2 with
  | Some t -> ignore (Tenant.pop t)
  | None -> Alcotest.fail "tenant 2 missing");
  check "after direct dequeue";
  ignore (Scheduler.schedule sched ~now:(Time.us 100) ~submit:(fun _ -> ()));
  ignore (Scheduler.schedule sched ~now:(Time.us 200) ~submit:(fun _ -> ()));
  check "after scheduling rounds";
  Scheduler.enqueue sched ~tenant_id:1 ~cost:2.5 ();
  Scheduler.remove_tenant sched 1;
  check "after removing a tenant with queued demand";
  Alcotest.(check (float 1e-6)) "zero once queues empty" 0.0 (Scheduler.backlog sched)

(* The O(1) aggregate equals the recomputed sum under any interleaving of
   enqueues, direct drains, scheduling rounds, removals and re-adds. *)
let prop_backlog_aggregate_consistent =
  QCheck.Test.make ~name:"backlog aggregate matches recomputed demand" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_range 0 5) (int_range 1 3)))
    (fun ops ->
      let global = Global_bucket.create ~n_threads:2 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      let slo_of id = if id = 3 then Slo.best_effort () else lc_slo in
      for id = 1 to 3 do
        Scheduler.add_tenant sched (Tenant.create ~id ~slo:(slo_of id) ~token_rate:50_000.0)
      done;
      let round = ref 0 in
      List.iter
        (fun (op, id) ->
          match op with
          | 0 | 1 -> (
            try Scheduler.enqueue sched ~tenant_id:id ~cost:(float_of_int (op + 1)) ()
            with Not_found -> ())
          | 2 -> (
            match Scheduler.find_tenant sched id with
            | Some t when Tenant.queue_length t > 0 -> ignore (Tenant.pop t)
            | _ -> ())
          | 3 ->
            incr round;
            ignore (Scheduler.schedule sched ~now:(Time.us (!round * 100)) ~submit:(fun _ -> ()))
          | 4 -> Scheduler.remove_tenant sched id
          | _ ->
            if Scheduler.find_tenant sched id = None then
              Scheduler.add_tenant sched (Tenant.create ~id ~slo:(slo_of id) ~token_rate:50_000.0))
        ops;
      abs_float (Scheduler.backlog sched -. recomputed_backlog sched) < 1e-6)

(* Token conservation: across any demand pattern, the total cost submitted
   never exceeds tokens generated (LC rates + BE rates) plus the bounded
   LC deficit allowance. *)
let prop_token_conservation =
  QCheck.Test.make ~name:"scheduler never oversubmits generated tokens" ~count:60
    QCheck.(
      pair
        (pair (int_range 1 40) (int_range 1 40)) (* lc rate, be rate in tokens/round *)
        (list_of_size Gen.(int_range 1 60) (pair (int_range 0 30) (int_range 0 30))))
    (fun ((lc_rate, be_rate), demands) ->
      let global = Global_bucket.create ~n_threads:2 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      (* Rates are per 100us round: tokens/s = per-round * 10_000. *)
      let lc =
        Tenant.create ~id:1
          ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100)
          ~token_rate:(float_of_int lc_rate *. 10_000.0)
      in
      let be =
        Tenant.create ~id:2 ~slo:(Slo.best_effort ()) ~token_rate:(float_of_int be_rate *. 10_000.0)
      in
      Scheduler.add_tenant sched lc;
      Scheduler.add_tenant sched be;
      let submitted = ref 0.0 in
      List.iteri
        (fun i (d_lc, d_be) ->
          for _ = 1 to d_lc do
            Scheduler.enqueue sched ~tenant_id:1 ~cost:1.0 ()
          done;
          for _ = 1 to d_be do
            Scheduler.enqueue sched ~tenant_id:2 ~cost:1.0 ()
          done;
          ignore
            (Scheduler.schedule sched
               ~now:(Time.us ((i + 1) * 100))
               ~submit:(fun s -> submitted := !submitted +. s.Scheduler.cost)))
        demands;
      let rounds = float_of_int (List.length demands - 1) in
      let generated = rounds *. float_of_int (lc_rate + be_rate) in
      (* +50 for the LC deficit allowance, +epsilon for float slack. *)
      !submitted <= generated +. 50.0 +. 1e-6)

(* BE tenants may never drive their balance negative. *)
let prop_be_never_negative =
  QCheck.Test.make ~name:"BE token balance never goes negative" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 20))
    (fun demands ->
      let global = Global_bucket.create ~n_threads:1 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      let be = Tenant.create ~id:1 ~slo:(Slo.best_effort ()) ~token_rate:30_000.0 in
      Scheduler.add_tenant sched be;
      List.for_all
        (fun _ -> true)
        [ () ]
      &&
      (List.iteri
         (fun i d ->
           for _ = 1 to d do
             Scheduler.enqueue sched ~tenant_id:1 ~cost:2.5 ()
           done;
           ignore (Scheduler.schedule sched ~now:(Time.us ((i + 1) * 100)) ~submit:(fun _ -> ()));
           if Tenant.tokens be < -1e9 then failwith "unreachable")
         demands;
       Tenant.tokens be >= 0.0))

(* Per-tenant FIFO: the scheduler may interleave tenants, but one
   tenant's requests are always submitted in arrival order. *)
let prop_per_tenant_fifo =
  QCheck.Test.make ~name:"scheduler preserves per-tenant FIFO order" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 1 3) (int_range 1 5)))
    (fun batches ->
      let global = Global_bucket.create ~n_threads:1 in
      let sched = Scheduler.create ~global ~thread_id:0 () in
      for id = 1 to 3 do
        Scheduler.add_tenant sched
          (Tenant.create ~id
             ~slo:(Slo.latency_critical ~latency_us:500 ~iops:1000.0 ~read_pct:100)
             ~token_rate:200_000.0)
      done;
      let seq = ref 0 in
      let out = Hashtbl.create 3 in
      List.iteri
        (fun round (tenant_id, n) ->
          for _ = 1 to n do
            incr seq;
            Scheduler.enqueue sched ~tenant_id ~cost:1.0 !seq
          done;
          ignore
            (Scheduler.schedule sched
               ~now:(Time.us ((round + 1) * 100))
               ~submit:(fun s ->
                 let prev =
                   Option.value (Hashtbl.find_opt out s.Scheduler.tenant_id) ~default:[]
                 in
                 Hashtbl.replace out s.Scheduler.tenant_id (s.Scheduler.payload :: prev))))
        batches;
      Hashtbl.fold
        (fun _ submitted ok ->
          let in_order l = List.sort compare l = l in
          ok && in_order (List.rev submitted))
        out true)

(* ------------------------------------------------------------------ *)
(* Allocation pins                                                    *)
(* ------------------------------------------------------------------ *)

(* A scheduler with [n_lc] LC and [n_be] BE tenants (ids from 1), each of
   whose rings has already grown once, past its first scheduled round.
   The bucket resets after every round unless [n_threads] > 1 (only
   thread 0 marks). *)
let warm_sched ?(n_threads = 1) ~n_lc ~n_be () =
  let global = Global_bucket.create ~n_threads in
  let sched = Scheduler.create ~global ~thread_id:0 () in
  for id = 1 to n_lc do
    Scheduler.add_tenant sched (Tenant.create ~id ~slo:lc_slo ~token_rate:10_000.0)
  done;
  for id = n_lc + 1 to n_lc + n_be do
    Scheduler.add_tenant sched (Tenant.create ~id ~slo:(Slo.best_effort ()) ~token_rate:10_000.0)
  done;
  for id = 1 to n_lc + n_be do
    Scheduler.enqueue sched ~tenant_id:id ~cost:1.0 ()
  done;
  ignore (Scheduler.schedule sched ~now:(Time.us 100) ~submit:(fun _ -> ()));
  ignore (Scheduler.schedule sched ~now:(Time.us 200) ~submit:(fun _ -> ()));
  Alcotest.(check (float 0.0)) "warm-up drained every queue" 0.0 (Scheduler.backlog sched);
  (global, sched)

(* The Algorithm-1 round works on all-float records in place: a
   steady-state round over idle tenants allocates nothing, however many
   tenants it walks (refill, POS_LIMIT ring, donation, idle drain, bucket
   mark). *)
let test_idle_round_allocation_free () =
  let _, sched = warm_sched ~n_lc:1_000 ~n_be:8 () in
  let submit _ = () in
  let words =
    Test_util.minor_words (fun () ->
        for k = 3 to 12 do
          ignore (Scheduler.schedule sched ~now:(Time.us (100 * k)) ~submit)
        done)
  in
  Alcotest.(check (float 0.0)) "minor words for 10 idle rounds over 1008 tenants" 0.0 words

(* A granting round allocates the hand-off only: one submission record
   (header + 3 fields) and its boxed cost (header + 1) per granted
   request, nothing per tenant. *)
let submission_words = 6

let test_granting_round_allocates_submissions_only () =
  let n_lc = 200 and n_be = 8 in
  let global, sched = warm_sched ~n_threads:2 ~n_lc ~n_be () in
  (* Two requests per tenant; each ring keeps the 4 slots it grew to in
     warm-up.  A BE tenant's refill covers one, so it claims the other's
     token from the global bucket, which this round does not reset. *)
  for id = 1 to n_lc + n_be do
    Scheduler.enqueue sched ~tenant_id:id ~cost:1.0 ();
    Scheduler.enqueue sched ~tenant_id:id ~cost:1.0 ()
  done;
  donate global 1_000.0;
  let level = Global_bucket.level global in
  let granted = ref 0 in
  let submit _ = incr granted in
  let n = ref 0 in
  let words =
    Test_util.minor_words (fun () -> n := Scheduler.schedule sched ~now:(Time.us 300) ~submit)
  in
  Alcotest.(check int) "every queued request granted" (2 * (n_lc + n_be)) !n;
  Alcotest.(check (float 1e-9)) "BE tenants claimed from the bucket" (float_of_int n_be)
    (level -. Global_bucket.level global);
  Alcotest.(check int) "submit called per grant" !n !granted;
  Alcotest.(check (float 0.0)) "minor words: submissions only"
    (float_of_int (!n * submission_words))
    words

(* Marks, resets and marks from retired threads allocate nothing. *)
let test_mark_round_allocation_free () =
  let b = Global_bucket.create ~n_threads:4 in
  Global_bucket.set_active_threads b [ 0; 1; 2 ];
  let resets = ref 0 in
  let words =
    Test_util.minor_words (fun () ->
        for _ = 1 to 1_000 do
          for thread_id = 0 to 3 do
            if Global_bucket.mark_round b ~thread_id then incr resets
          done
        done)
  in
  Alcotest.(check int) "one reset per full round" 1_000 !resets;
  Alcotest.(check (float 0.0)) "minor words for 4000 marks" 0.0 words

(* A retired thread's late mark is a no-op: it neither raises nor counts
   toward the active threads' round. *)
let test_mark_from_retired_thread () =
  let b = Global_bucket.create ~n_threads:2 in
  donate b 8.0;
  Global_bucket.set_active_threads b [ 0 ];
  Alcotest.(check bool) "retired thread's mark ignored" false
    (Global_bucket.mark_round b ~thread_id:1);
  Alcotest.(check bool) "unknown thread's mark ignored" false
    (Global_bucket.mark_round b ~thread_id:7);
  Alcotest.(check (float 1e-9)) "level untouched" 8.0 (Global_bucket.level b);
  Alcotest.(check bool) "active thread resets" true (Global_bucket.mark_round b ~thread_id:0);
  Alcotest.(check int) "one reset" 1 (Global_bucket.resets b)

(* The queue ring keeps FIFO order and its demand sum across wraparound
   and growth. *)
let test_tenant_ring_wraparound () =
  let t = Tenant.create ~id:1 ~slo:lc_slo ~token_rate:1.0 in
  let next = ref 0 and expect = ref 0 in
  let push () =
    Tenant.enqueue t ~cost:(float_of_int (1 + (!next mod 3))) !next;
    incr next
  in
  let pop () =
    let cost = (Tenant.acct t).head_cost in
    Alcotest.(check (float 0.0)) "cost travels with its request"
      (float_of_int (1 + (!expect mod 3)))
      cost;
    Alcotest.(check int) "fifo" !expect (Tenant.pop t);
    incr expect
  in
  for round = 1 to 40 do
    for _ = 1 to round mod 7 do
      push ()
    done;
    for _ = 1 to min (Tenant.queue_length t) (round mod 5) do
      pop ()
    done
  done;
  while Tenant.queue_length t > 0 do
    pop ()
  done;
  Alcotest.(check (float 1e-9)) "demand back to zero" 0.0 (Tenant.demand t);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Tenant.pop: empty queue") (fun () ->
      ignore (Tenant.pop t))

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ("slo", [ Alcotest.test_case "constructors" `Quick test_slo_constructors ]);
    ( "cost_model",
      [
        Alcotest.test_case "basic costs" `Quick test_cost_basic;
        Alcotest.test_case "weighted rate (paper example)" `Quick test_weighted_rate_paper_example;
        Alcotest.test_case "from calibration" `Quick test_cost_of_fitted;
      ] );
    ( "global_bucket",
      [
        Alcotest.test_case "add/take" `Quick test_bucket_add_take;
        Alcotest.test_case "last thread resets" `Quick test_bucket_reset_last_thread;
        Alcotest.test_case "mark from a retired thread" `Quick test_mark_from_retired_thread;
        Alcotest.test_case "mark_round allocates nothing" `Quick test_mark_round_allocation_free;
      ] );
    ( "tenant",
      [
        Alcotest.test_case "queue accounting" `Quick test_tenant_queue;
        Alcotest.test_case "POS_LIMIT window" `Quick test_tenant_pos_limit_window;
        Alcotest.test_case "token balance" `Quick test_tenant_tokens;
        Alcotest.test_case "ring wraparound and growth" `Quick test_tenant_ring_wraparound;
        Alcotest.test_case "ring releases popped requests" `Quick test_tenant_ring_releases_popped;
      ] );
    ( "scheduler",
      [
        Alcotest.test_case "LC within SLO fully served" `Quick test_lc_within_slo_all_submitted;
        Alcotest.test_case "LC throttled at NEG_LIMIT" `Quick test_lc_rate_limited_at_neg_limit;
        Alcotest.test_case "writes consume 10x tokens" `Quick test_lc_writes_cost_more;
        Alcotest.test_case "LC spare tokens donated" `Quick test_lc_spare_tokens_donated;
        Alcotest.test_case "BE fair sharing" `Quick test_be_fair_sharing;
        Alcotest.test_case "BE no burst after idle (DRR)" `Quick test_be_no_burst_after_idle;
        Alcotest.test_case "BE claims LC leftovers" `Quick test_be_claims_lc_leftovers;
        Alcotest.test_case "BE round-robin rotates" `Quick test_be_round_robin_rotates;
        Alcotest.test_case "cross-thread token exchange" `Quick test_multi_thread_token_exchange;
        Alcotest.test_case "tenant removal" `Quick test_remove_tenant;
        Alcotest.test_case "removal preserves order & cursor" `Quick
          test_remove_tenant_preserves_order_and_cursor;
        Alcotest.test_case "backlog aggregate tracks demand" `Quick
          test_backlog_aggregate_tracks_demand;
        Alcotest.test_case "idle round allocates nothing" `Quick test_idle_round_allocation_free;
        Alcotest.test_case "granting round allocates submissions only" `Quick
          test_granting_round_allocates_submissions_only;
        qcheck prop_token_conservation;
        qcheck prop_be_never_negative;
        qcheck prop_per_tenant_fifo;
        qcheck prop_backlog_aggregate_consistent;
      ] );
  ]
