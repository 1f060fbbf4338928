(* Unit and property tests for the DES kernel. *)

open Reflex_engine

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time                                                               *)
(* ------------------------------------------------------------------ *)

let ns = Time.ns
let time = Test_util.time

let test_time_constructors () =
  Alcotest.check time "us" (ns 1_000) (Time.us 1);
  Alcotest.check time "ms" (ns 1_000_000) (Time.ms 1);
  Alcotest.check time "sec" (ns 1_000_000_000) (Time.sec 1);
  Alcotest.check time "of_float_us rounds" (ns 1_500) (Time.of_float_us 1.5);
  check_float "to_float_us" 2.5 (Time.to_float_us (ns 2_500));
  Alcotest.(check int) "infinity is max_int" max_int (Time.infinity :> int)

let test_time_arith () =
  Alcotest.check time "add" (ns 30) (Time.add (ns 10) (ns 20));
  Alcotest.check time "sub" (ns 10) (Time.sub (ns 30) (ns 20));
  Alcotest.check time "scale" (ns 15) (Time.scale (ns 10) 1.5);
  Alcotest.(check bool) "lt" true Time.(ns 5 < ns 6);
  Alcotest.(check bool) "ge" true Time.(ns 6 >= ns 6);
  Alcotest.check time "max" (ns 6) (Time.max (ns 5) (ns 6));
  Alcotest.check time "min" (ns 5) (Time.min (ns 5) (ns 6))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string (Time.ns 500));
  Alcotest.(check string) "us" "12.00us" (Time.to_string (Time.us 12));
  Alcotest.(check string) "ms" "3.00ms" (Time.to_string (Time.ms 3))

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

(* The splitmix64 stream is part of every recorded digest: its first
   outputs for a fixed seed are pinned to the reference values. *)
let test_prng_pinned_stream () =
  let p = Prng.create 42L in
  List.iteri
    (fun i expected ->
      Alcotest.(check int64) (Printf.sprintf "bits64 #%d" i) expected (Prng.bits64 p))
    [
      0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L; 0x581CE1FF0E4AE394L;
      0x09BC585A244823F2L; 0xDE4431FA3C80DB06L; 0x37E9671C45376D5DL; 0xCCF635EE9E9E2FA4L;
      0x5705B8770B3D7DD5L; 0x9E54D738297F77AEL; 0x3474724A775B19BFL; 0x7E348A0E451650BEL;
      0x836DED897F3E46E6L; 0x851F977347ED6DB7L; 0xAA47E31C02E78EDCL; 0x341452C54D7C33F2L;
    ]

(* [int] draws keep the splitmix64 state unboxed end to end. *)
let test_prng_int_allocation_free () =
  let p = Prng.create 7L in
  let acc = ref 0 in
  let words =
    Test_util.minor_words (fun () ->
        for _ = 1 to 10_000 do
          acc := !acc + Prng.int p 1000
        done)
  in
  Alcotest.(check (float 0.0)) "minor words for 10k Prng.int draws" 0.0 words

let test_prng_split_independent () =
  let a = Prng.create 42L in
  let c = Prng.split a in
  let x = Prng.bits64 a and y = Prng.bits64 c in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal x y))

let test_prng_float_range () =
  let p = Prng.create 7L in
  for _ = 1 to 10_000 do
    let x = Prng.float p in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_exponential_mean () =
  let p = Prng.create 11L in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f close to 50" mean)
    true
    (abs_float (mean -. 50.0) < 1.0)

let test_prng_normal_moments () =
  let p = Prng.create 13L in
  let n = 200_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.normal p ~mean:10.0 ~stddev:3.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~10" true (abs_float (mean -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev ~3" true (abs_float (sqrt var -. 3.0) < 0.1)

let test_prng_zipf_skew () =
  let p = Prng.create 17L in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let i = Prng.zipf p ~n:100 ~theta:0.99 in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank 10 > rank 90" true (counts.(10) > counts.(90))

let test_prng_bool_bias () =
  let p = Prng.create 19L in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.bool p 0.25 then incr hits
  done;
  let frac = float_of_int !hits /. 100_000.0 in
  Alcotest.(check bool) "p=0.25 respected" true (abs_float (frac -. 0.25) < 0.01)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int in [0,n)" ~count:1000
    QCheck.(pair int64 (int_range 1 10_000))
    (fun (seed, n) ->
      let p = Prng.create seed in
      let x = Prng.int p n in
      x >= 0 && x < n)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:(ns 30) ~seq:0 "c";
  Heap.push h ~time:(ns 10) ~seq:1 "a";
  Heap.push h ~time:(ns 20) ~seq:2 "b";
  let pop () =
    match Heap.pop h with Some (_, _, v) -> v | None -> Alcotest.fail "empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:(ns 5) ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, _, v) -> Alcotest.(check int) "FIFO at equal time" i v
    | None -> Alcotest.fail "empty"
  done

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (int_range 0 1_000_000))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i x -> Heap.push h ~time:(ns x) ~seq:i ()) times;
      let rec drain acc =
        match Heap.pop h with
        | Some (t, _, ()) -> drain ((t :> int) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let sorted = List.sort compare times in
      popped = sorted)

let test_heap_pop_if_le_horizon () =
  let h = Heap.create () in
  Heap.push h ~time:(ns 10) ~seq:0 1;
  Heap.push h ~time:(ns 20) ~seq:1 2;
  Alcotest.(check int) "min beyond horizon" (-1) (Heap.pop_if_le h ~until:(ns 5));
  Alcotest.(check int) "nothing popped" 2 (Heap.length h);
  Alcotest.(check int) "inclusive horizon pops 1" 1 (Heap.pop_if_le h ~until:(ns 10));
  Alcotest.check time "popped time 10" (ns 10) (Heap.popped_time h);
  Alcotest.(check int) "pops 2" 2 (Heap.pop_if_le h ~until:Time.infinity);
  Alcotest.check time "popped time 20" (ns 20) (Heap.popped_time h);
  Alcotest.(check int) "popped seq" 1 (Heap.popped_seq h);
  Alcotest.(check int) "empty heap" (-1) (Heap.pop_if_le h ~until:Time.infinity)

(* pop_if_le's result as the option the reference yields. *)
let pop_if_le_opt h ~until =
  let v = Heap.pop_if_le h ~until in
  if v < 0 then None else Some (Heap.popped_time h, Heap.popped_seq h, v)

(* The reference semantics pop_if_le must match: a peek guard before pop. *)
let guarded_pop h ~until =
  match Heap.peek h with
  | Some (t, _, _) when Time.compare t until <= 0 -> Heap.pop h
  | _ -> None

let prop_heap_pop_if_le_matches_guarded_pop =
  QCheck.Test.make ~name:"pop_if_le = peek guard + pop" ~count:300
    QCheck.(
      pair
        (list (int_range 0 1_000))
        (list_of_size Gen.(int_range 1 64) (int_range 0 1_000)))
    (fun (times, probes) ->
      (* Two heaps with identical pushes; probe one with pop_if_le and the
         other with the two-step reference, at the same horizons. *)
      let h1 = Heap.create () and h2 = Heap.create () in
      List.iteri
        (fun i x ->
          Heap.push h1 ~time:(ns x) ~seq:i i;
          Heap.push h2 ~time:(ns x) ~seq:i i)
        times;
      List.for_all
        (fun u ->
          let until = ns u in
          pop_if_le_opt h1 ~until = guarded_pop h2 ~until)
        probes
      && Heap.length h1 = Heap.length h2)

let test_heap_clear_releases_values () =
  let h = Heap.create () in
  let w = Weak.create 4 in
  for i = 0 to 3 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h ~time:(ns i) ~seq:i v
  done;
  Heap.clear h;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool) "cleared value collected" false (Weak.check w i)
  done;
  Alcotest.(check int) "empty after clear" 0 (Heap.length h);
  Heap.push h ~time:(ns 1) ~seq:0 (ref 9);
  (match Heap.pop h with
  | Some (t, 0, { contents = 9 }) when Time.equal t (ns 1) -> ()
  | _ -> Alcotest.fail "heap unusable after clear")

let test_heap_pop_blanks_slots () =
  let h = Heap.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h ~time:(ns i) ~seq:i v
  done;
  for _ = 0 to 7 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  (* Draining the heap blanks vacated slots; only the final pop may leave
     one stale reference in slot 0. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d live after drain (at most 1)" !live)
    true (!live <= 1)

let test_heap_clear_keeps_capacity () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h ~time:(ns i) ~seq:i i
  done;
  let cap = Heap.capacity h in
  Alcotest.(check bool) "grown beyond seed" true (cap >= 100);
  Heap.clear h;
  Alcotest.(check int) "capacity preserved by clear" cap (Heap.capacity h);
  Alcotest.(check int) "empty after clear" 0 (Heap.length h);
  for i = 0 to 99 do
    Heap.push h ~time:(ns i) ~seq:i i
  done;
  Alcotest.(check int) "no re-growth on refill" cap (Heap.capacity h)

(* ------------------------------------------------------------------ *)
(* Wheel                                                              *)
(* ------------------------------------------------------------------ *)

let test_wheel_ordering () =
  let w = Wheel.create () in
  Wheel.push w ~time:(ns 30) ~seq:0 3;
  Wheel.push w ~time:(ns 10) ~seq:1 1;
  Wheel.push w ~time:(ns 20) ~seq:2 2;
  let pop () =
    match Wheel.pop w with Some (_, _, v) -> v | None -> Alcotest.fail "empty"
  in
  Alcotest.(check int) "first" 1 (pop ());
  Alcotest.(check int) "second" 2 (pop ());
  Alcotest.(check int) "third" 3 (pop ());
  Alcotest.(check bool) "empty" true (Wheel.is_empty w)

let test_wheel_fifo_ties () =
  let w = Wheel.create () in
  for i = 0 to 9 do
    Wheel.push w ~time:(ns 5) ~seq:i i
  done;
  for i = 0 to 9 do
    match Wheel.pop w with
    | Some (_, _, v) -> Alcotest.(check int) "FIFO at equal time" i v
    | None -> Alcotest.fail "empty"
  done

let test_wheel_pop_if_le_horizon () =
  let w = Wheel.create () in
  Wheel.push w ~time:(ns 10) ~seq:0 1;
  Wheel.push w ~time:(ns 20) ~seq:1 2;
  Alcotest.(check int) "min beyond horizon" (-1) (Wheel.pop_if_le w ~until:(ns 5));
  Alcotest.(check int) "nothing popped" 2 (Wheel.length w);
  Alcotest.(check int) "inclusive horizon pops 1" 1 (Wheel.pop_if_le w ~until:(ns 10));
  Alcotest.check time "popped time 10" (ns 10) (Wheel.popped_time w);
  Alcotest.(check int) "pops 2" 2 (Wheel.pop_if_le w ~until:Time.infinity);
  Alcotest.check time "popped time 20" (ns 20) (Wheel.popped_time w);
  Alcotest.(check int) "empty wheel" (-1) (Wheel.pop_if_le w ~until:Time.infinity)

let test_wheel_cross_level_and_overflow () =
  (* One event per wheel level, one beyond the ~73 min in-wheel horizon
     (overflow pull path) and one at Time.infinity (direct overflow pop
     path). *)
  let w = Wheel.create () in
  let times =
    [ Time.ns 500; Time.us 300; Time.ms 100; Time.sec 60; Time.sec 7200; Time.infinity ]
  in
  List.iteri (fun i t -> Wheel.push w ~time:t ~seq:i i) times;
  let popped = ref [] in
  let rec drain () =
    match Wheel.pop w with
    | Some (t, _, v) ->
      popped := (t, v) :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (pair Test_util.time int)))
    "cross-level pops in time order"
    (List.mapi (fun i t -> (t, i)) times)
    (List.rev !popped)

let test_wheel_push_below_cursor () =
  (* Popping advances the cursor past drained slots; a later push below
     the cursor (but at/after the sim clock) must still pop in order. *)
  let w = Wheel.create () in
  Wheel.push w ~time:(Time.us 10) ~seq:0 0;
  Wheel.push w ~time:(Time.us 40) ~seq:1 1;
  (match Wheel.pop w with
  | Some (t, _, 0) -> Alcotest.check time "first pop" (Time.us 10) t
  | _ -> Alcotest.fail "expected first event");
  Wheel.push w ~time:(Time.us 20) ~seq:2 2;
  Wheel.push w ~time:(Time.us 15) ~seq:3 3;
  let order = ref [] in
  let rec drain () =
    match Wheel.pop w with
    | Some (_, _, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "below-cursor pushes ordered" [ 3; 2; 1 ] (List.rev !order);
  (* A burst at the instant just popped lands below the cursor (its slot
     was drained) and interleaves by sequence number with the entry of
     the same instant still in the ready buffer. *)
  let w = Wheel.create () in
  Wheel.push w ~time:(Time.us 10) ~seq:0 0;
  Wheel.push w ~time:(Time.us 10) ~seq:1 1;
  ignore (Wheel.pop w);
  for s = 2 to 5 do
    Wheel.push w ~time:(Time.us 10) ~seq:s s
  done;
  Wheel.push w ~time:(ns 9_999) ~seq:6 6;
  let rec drain acc = match Wheel.pop w with Some (_, _, v) -> drain (v :: acc) | None -> acc in
  Alcotest.(check (list int)) "same-instant burst below the cursor" [ 6; 1; 2; 3; 4; 5 ]
    (List.rev (drain []))

let test_wheel_clear_reuse () =
  let w = Wheel.create () in
  for i = 0 to 99 do
    Wheel.push w ~time:(ns ((i * 7919) land 0xFFFFF)) ~seq:i i
  done;
  ignore (Wheel.pop w);
  Wheel.clear w;
  Alcotest.(check int) "empty after clear" 0 (Wheel.length w);
  Wheel.push w ~time:(ns 5) ~seq:0 42;
  (match Wheel.pop w with
  | Some (t, 0, 42) when Time.equal t (ns 5) -> ()
  | _ -> Alcotest.fail "wheel unusable after clear");
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

(* Heap/wheel equivalence: random interleavings of pushes (times spread
   across every wheel level plus the overflow regimes) and pops must
   yield identical (time, seq, value) sequences on both backends. *)
type qop = QPush of int | QPopLe of int | QPop

let qop_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun (e, m) -> QPush (m lsl e)) (pair (int_range 0 45) (int_range 0 4095)));
        (1, return (QPush max_int));
        (2, map (fun (e, m) -> QPopLe (m lsl e)) (pair (int_range 0 45) (int_range 0 4095)));
        (2, return QPop);
      ])

let qop_print = function
  | QPush t -> Printf.sprintf "push %d" t
  | QPopLe u -> Printf.sprintf "pop_if_le %d" u
  | QPop -> "pop"

let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"wheel pops identical (time, seq) sequence to heap" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map qop_print ops))
       QCheck.Gen.(list_size (int_range 1 200) qop_gen))
    (fun ops ->
      let h = Heap.create () and w = Wheel.create () in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | QPush ti ->
            let time = ns ti in
            Heap.push h ~time ~seq:!seq !seq;
            Wheel.push w ~time ~seq:!seq !seq;
            incr seq
          | QPopLe u ->
            let until = ns u in
            let a = Heap.pop_if_le h ~until and b = Wheel.pop_if_le w ~until in
            if a <> b || (a >= 0 && not (Time.equal (Heap.popped_time h) (Wheel.popped_time w)))
            then ok := false
          | QPop -> if Heap.pop h <> Wheel.pop w then ok := false)
        ops;
      let rec drain () =
        let a = Heap.pop h and b = Wheel.pop w in
        if a <> b then ok := false else if a <> None then drain ()
      in
      drain ();
      !ok && Heap.length h = 0 && Wheel.length w = 0)

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim (Time.us 30) (fun () -> log := 3 :: !log));
  ignore (Sim.at sim (Time.us 10) (fun () -> log := 1 :: !log));
  ignore (Sim.at sim (Time.us 20) (fun () -> log := 2 :: !log));
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "events in time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.check time "clock at last event" (Time.us 30) (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.at sim (Time.us 10) (fun () -> fired := true) in
  Sim.cancel sim ev;
  ignore (Sim.run sim);
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_sim_cancel_releases_closure () =
  (* Cancelling blanks the heap slot's action immediately: the closure's
     environment must become collectable before the heap ever pops the
     dead event (retry timers cancel on every successful completion, so
     this window can hold thousands of events). *)
  let sim = Sim.create () in
  let weak = Weak.create 1 in
  let ev =
    let payload = Bytes.create 4096 in
    Weak.set weak 0 (Some payload);
    Sim.at sim (Time.ms 1) (fun () -> ignore (Bytes.length payload))
  in
  Gc.full_major ();
  Alcotest.(check bool) "payload pinned while scheduled" true (Weak.check weak 0);
  Sim.cancel sim ev;
  Gc.full_major ();
  Alcotest.(check bool) "cancel released the closure payload" false (Weak.check weak 0);
  ignore (Sim.run sim);
  Alcotest.(check bool) "marked cancelled" true (Sim.cancelled sim ev)

let test_sim_cancel_after_fire_noop () =
  let sim = Sim.create () in
  let n = ref 0 in
  let ev = Sim.at sim (Time.us 5) (fun () -> incr n) in
  ignore (Sim.run sim);
  Alcotest.(check int) "fired once" 1 !n;
  (* Cancelling an already-fired (or already-cancelled) event is a no-op:
     it must not raise, and must not perturb later scheduling. *)
  Sim.cancel sim ev;
  Sim.cancel sim ev;
  ignore (Sim.at sim (Time.us 10) (fun () -> incr n));
  ignore (Sim.run sim);
  Alcotest.(check int) "later events unaffected" 2 !n

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.at sim (Time.us i) (fun () -> incr count))
  done;
  ignore (Sim.run ~until:(Time.us 5) sim);
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check int) "pending remain" 5 (Sim.pending sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "rest run" 10 !count

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.at sim (Time.us 10) (fun () ->
         log := "outer" :: !log;
         ignore (Sim.after sim (Time.us 5) (fun () -> log := "inner" :: !log))));
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.check time "clock" (Time.us 15) (Sim.now sim)

let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.at sim (Time.us 10) (fun () -> ()));
  ignore (Sim.run sim);
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Sim.at: scheduling in the past (5.00us < 10.00us)") (fun () ->
      ignore (Sim.at sim (Time.us 5) (fun () -> ())))

let test_sim_every () =
  let sim = Sim.create () in
  let ticks = ref [] in
  Sim.every sim ~every:(Time.us 10) ~until:(Time.us 45) (fun t -> ticks := t :: !ticks);
  ignore (Sim.run sim);
  Alcotest.(check (list Test_util.time))
    "periodic ticks"
    [ Time.us 10; Time.us 20; Time.us 30; Time.us 40 ]
    (List.rev !ticks)

let test_sim_run_advances_clock_to_until () =
  let sim = Sim.create () in
  ignore (Sim.at sim (Time.us 1) (fun () -> ()));
  ignore (Sim.run ~until:(Time.ms 1) sim);
  Alcotest.check time "clock hits until" (Time.ms 1) (Sim.now sim)

let test_sim_every_nonpositive_raises () =
  let sim = Sim.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Sim.every: non-positive period")
    (fun () -> Sim.every sim ~every:Time.zero ~until:(Time.us 10) (fun _ -> ()))

let test_sim_every_until_before_first_tick () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  Sim.every sim ~every:(Time.us 10) ~until:(Time.us 5) (fun _ -> incr ticks);
  ignore (Sim.run sim);
  Alcotest.(check int) "no ticks when until < first tick" 0 !ticks;
  Alcotest.(check int) "nothing left pending" 0 (Sim.pending sim)

let test_sim_every_overflow_guard () =
  (* A period of Time.infinity: the first tick lands exactly at infinity;
     computing the second would wrap the int.  The guard must stop the chain
     instead of raising "scheduling in the past" from inside the loop. *)
  let sim = Sim.create () in
  let ticks = ref 0 in
  Sim.every sim ~every:Time.infinity ~until:Time.infinity (fun _ -> incr ticks);
  ignore (Sim.run sim);
  Alcotest.(check int) "one tick, then the wrap guard stops the chain" 1 !ticks

let test_sim_live_pending_excludes_cancelled () =
  let sim = Sim.create () in
  let evs = List.init 5 (fun i -> Sim.at sim (Time.us (i + 1)) (fun () -> ())) in
  List.iteri (fun i ev -> if i < 3 then Sim.cancel sim ev) evs;
  Alcotest.(check int) "pending still counts cancelled entries" 5 (Sim.pending sim);
  Alcotest.(check int) "live_pending excludes cancelled" 2 (Sim.live_pending sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "drained" 0 (Sim.live_pending sim);
  Alcotest.(check int) "only the live two fired" 2 (Sim.events_executed sim)

let test_sim_backend_selection () =
  Alcotest.(check bool) "default is wheel" true (Sim.backend (Sim.create ()) = Sim.Wheel);
  Alcotest.(check bool) "getter agrees" true (Sim.get_default_backend () = Sim.Wheel);
  let explicit = Sim.create ~backend:Sim.Heap () in
  Alcotest.(check bool) "explicit heap" true (Sim.backend explicit = Sim.Heap);
  let implicit = Sim.with_default_backend Sim.Heap Sim.create in
  Alcotest.(check bool) "default follows selection" true (Sim.backend implicit = Sim.Heap);
  Alcotest.(check bool) "default restored" true (Sim.get_default_backend () = Sim.Wheel);
  (match Sim.with_default_backend Sim.Heap (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "default restored after a raise" true
    (Sim.get_default_backend () = Sim.Wheel)

let test_sim_wheel_backend_runs () =
  let sim = Sim.create ~backend:Sim.Wheel () in
  let log = ref [] in
  ignore (Sim.at sim (Time.us 30) (fun () -> log := 3 :: !log));
  ignore (Sim.at sim (Time.us 10) (fun () -> log := 1 :: !log));
  ignore (Sim.at sim (Time.us 20) (fun () -> log := 2 :: !log));
  (* A periodic daemon must not keep the wheel-backed loop alive. *)
  Sim.every_daemon sim ~every:(Time.us 7) (fun _ -> ());
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "events in time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.check time "clock at last event" (Time.us 30) (Sim.now sim)

(* The event loop allocates nothing per event: with a preallocated
   self-rescheduling action, [Sim.run] pops the slot and the time without
   building an option or a tuple, and time is an immediate int.  The
   first run grows the arena and the queue (cold paths); the measured
   second run must not allocate at all. *)
let sim_run_words_per_event backend =
  let sim = Sim.create ~backend () in
  let remaining = ref 0 in
  let rec act () =
    if !remaining > 0 then begin
      decr remaining;
      ignore (Sim.after sim (Time.ns 700) act)
    end
  in
  let batch n =
    remaining := n;
    for _ = 1 to 16 do
      ignore (Sim.after sim (Time.ns 100) act)
    done;
    Sim.run sim
  in
  ignore (batch 20_000);
  let executed = ref 0 in
  let words = Test_util.minor_words (fun () -> executed := batch 50_000) in
  Alcotest.(check bool) "events ran" true (!executed > 50_000);
  words /. float_of_int !executed

let test_sim_run_allocation_free () =
  List.iter
    (fun (name, backend) ->
      Alcotest.(check (float 0.0))
        (name ^ ": minor words per event")
        0.0 (sim_run_words_per_event backend))
    [ ("heap", Sim.Heap); ("wheel", Sim.Wheel) ]

(* Full Sim-level backend equivalence: identical schedule / nested
   schedule / cancel plans must execute the same events at the same
   times in the same order on both backends. *)
let prop_sim_backends_equivalent =
  QCheck.Test.make ~name:"Sim trace identical on heap and wheel backends" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 2_000_000) (int_range 0 9)))
    (fun plan ->
      let trace backend =
        let sim = Sim.create ~backend () in
        let log = Buffer.create 256 in
        let evs = ref [] in
        List.iteri
          (fun i (t, k) ->
            if k < 7 then begin
              let ev =
                Sim.at sim (ns t) (fun () ->
                    Buffer.add_string log (Printf.sprintf "%d@%d;" i (Sim.now sim :> int));
                    if k mod 3 = 0 then
                      ignore
                        (Sim.after sim
                           (ns ((i * 17) + 1))
                           (fun () ->
                             Buffer.add_string log
                               (Printf.sprintf "n%d@%d;" i (Sim.now sim :> int)))))
              in
              evs := ev :: !evs
            end
            else begin
              match !evs with
              | [] -> ()
              | l -> Sim.cancel sim (List.nth l (t mod List.length l))
            end)
          plan;
        ignore (Sim.run sim);
        (Buffer.contents log, Sim.events_executed sim, Sim.now sim)
      in
      trace Sim.Heap = trace Sim.Wheel)

(* ------------------------------------------------------------------ *)
(* Resource                                                           *)
(* ------------------------------------------------------------------ *)

let test_resource_single_server_fifo () =
  let sim = Sim.create () in
  let r = Resource.create sim ~servers:1 in
  let finishes = ref [] in
  for i = 1 to 3 do
    Resource.submit r ~service:(Time.us 10) (fun ~started:_ ~finished ->
        finishes := (i, finished) :: !finishes)
  done;
  ignore (Sim.run sim);
  let expected = [ (1, Time.us 10); (2, Time.us 20); (3, Time.us 30) ] in
  Alcotest.(check (list (pair int Test_util.time))) "sequential service" expected (List.rev !finishes)

let test_resource_parallel_servers () =
  let sim = Sim.create () in
  let r = Resource.create sim ~servers:2 in
  let finishes = ref [] in
  for i = 1 to 4 do
    Resource.submit r ~service:(Time.us 10) (fun ~started:_ ~finished ->
        finishes := (i, finished) :: !finishes)
  done;
  ignore (Sim.run sim);
  let expected =
    [ (1, Time.us 10); (2, Time.us 10); (3, Time.us 20); (4, Time.us 20) ]
  in
  Alcotest.(check (list (pair int Test_util.time))) "two at a time" expected (List.rev !finishes)

let test_resource_priority () =
  let sim = Sim.create () in
  let r = Resource.create sim ~servers:1 in
  let order = ref [] in
  (* Occupy the server, then enqueue low before high: high must win. *)
  Resource.submit r ~service:(Time.us 10) (fun ~started:_ ~finished:_ ->
      order := "first" :: !order);
  Resource.submit r ~priority:Resource.Low ~service:(Time.us 10)
    (fun ~started:_ ~finished:_ -> order := "low" :: !order);
  Resource.submit r ~priority:Resource.High ~service:(Time.us 10)
    (fun ~started:_ ~finished:_ -> order := "high" :: !order);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "high preempts queue" [ "first"; "high"; "low" ]
    (List.rev !order)

let test_resource_nonpreemptive () =
  let sim = Sim.create () in
  let r = Resource.create sim ~servers:1 in
  let high_started = ref Time.zero in
  Resource.submit r ~priority:Resource.Low ~service:(Time.ms 5)
    (fun ~started:_ ~finished:_ -> ());
  ignore
    (Sim.at sim (Time.us 1) (fun () ->
         Resource.submit r ~priority:Resource.High ~service:(Time.us 1)
           (fun ~started ~finished:_ -> high_started := started)));
  ignore (Sim.run sim);
  Alcotest.check time "high waits behind in-service low" (Time.ms 5) !high_started

let test_resource_utilization () =
  let sim = Sim.create () in
  let r = Resource.create sim ~servers:1 in
  Resource.submit r ~service:(Time.us 50) (fun ~started:_ ~finished:_ -> ());
  ignore (Sim.run ~until:(Time.us 100) sim);
  Alcotest.(check bool) "50% busy" true (abs_float (Resource.utilization r -. 0.5) < 1e-6);
  Alcotest.(check int) "completed" 1 (Resource.completed r)

let test_resource_queue_depth_visibility () =
  let sim = Sim.create () in
  let r = Resource.create sim ~servers:1 in
  Resource.submit r ~service:(Time.us 10) (fun ~started:_ ~finished:_ -> ());
  Resource.submit r ~service:(Time.us 10) (fun ~started:_ ~finished:_ -> ());
  Resource.submit r ~priority:Resource.Low ~service:(Time.us 10)
    (fun ~started:_ ~finished:_ -> ());
  Alcotest.(check int) "one busy" 1 (Resource.busy r);
  Alcotest.(check (pair int int)) "queues" (1, 1) (Resource.queued r);
  ignore (Sim.run sim)

let prop_resource_conserves_jobs =
  QCheck.Test.make ~name:"resource completes every submitted job" ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 1 50) (int_range 1 1000)))
    (fun (servers, services) ->
      let sim = Sim.create () in
      let r = Resource.create sim ~servers in
      let done_ = ref 0 in
      List.iter
        (fun s ->
          Resource.submit r ~service:(Time.ns s) (fun ~started:_ ~finished:_ -> incr done_))
        services;
      ignore (Sim.run sim);
      !done_ = List.length services && Resource.completed r = List.length services)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "time",
      [
        Alcotest.test_case "constructors" `Quick test_time_constructors;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "pretty-print" `Quick test_time_pp;
      ] );
    ( "prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "pinned splitmix64 stream" `Quick test_prng_pinned_stream;
        Alcotest.test_case "int draws allocate nothing" `Quick test_prng_int_allocation_free;
        Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        Alcotest.test_case "float in range" `Quick test_prng_float_range;
        Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        Alcotest.test_case "normal moments" `Quick test_prng_normal_moments;
        Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
        Alcotest.test_case "bernoulli bias" `Quick test_prng_bool_bias;
        qcheck prop_prng_int_bounds;
      ] );
    ( "heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "pop_if_le horizon" `Quick test_heap_pop_if_le_horizon;
        Alcotest.test_case "clear releases values" `Quick test_heap_clear_releases_values;
        Alcotest.test_case "pop blanks vacated slots" `Quick test_heap_pop_blanks_slots;
        Alcotest.test_case "clear keeps capacity" `Quick test_heap_clear_keeps_capacity;
        qcheck prop_heap_sorts;
        qcheck prop_heap_pop_if_le_matches_guarded_pop;
      ] );
    ( "wheel",
      [
        Alcotest.test_case "ordering" `Quick test_wheel_ordering;
        Alcotest.test_case "FIFO on ties" `Quick test_wheel_fifo_ties;
        Alcotest.test_case "pop_if_le horizon" `Quick test_wheel_pop_if_le_horizon;
        Alcotest.test_case "cross-level and overflow" `Quick test_wheel_cross_level_and_overflow;
        Alcotest.test_case "push below cursor" `Quick test_wheel_push_below_cursor;
        Alcotest.test_case "clear and reuse" `Quick test_wheel_clear_reuse;
        qcheck prop_wheel_matches_heap;
      ] );
    ( "sim",
      [
        Alcotest.test_case "event ordering" `Quick test_sim_ordering;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "cancel releases closure immediately" `Quick
          test_sim_cancel_releases_closure;
        Alcotest.test_case "cancel after fire is a no-op" `Quick test_sim_cancel_after_fire_noop;
        Alcotest.test_case "run until" `Quick test_sim_until;
        Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
        Alcotest.test_case "past scheduling raises" `Quick test_sim_past_raises;
        Alcotest.test_case "periodic every" `Quick test_sim_every;
        Alcotest.test_case "clock advances to until" `Quick test_sim_run_advances_clock_to_until;
        Alcotest.test_case "every rejects non-positive period" `Quick
          test_sim_every_nonpositive_raises;
        Alcotest.test_case "every with until before first tick" `Quick
          test_sim_every_until_before_first_tick;
        Alcotest.test_case "every overflow guard" `Quick test_sim_every_overflow_guard;
        Alcotest.test_case "live_pending excludes cancelled" `Quick
          test_sim_live_pending_excludes_cancelled;
        Alcotest.test_case "backend selection" `Quick test_sim_backend_selection;
        Alcotest.test_case "wheel backend runs" `Quick test_sim_wheel_backend_runs;
        Alcotest.test_case "run allocates nothing per event" `Quick test_sim_run_allocation_free;
        qcheck prop_sim_backends_equivalent;
      ] );
    ( "resource",
      [
        Alcotest.test_case "single-server FIFO" `Quick test_resource_single_server_fifo;
        Alcotest.test_case "parallel servers" `Quick test_resource_parallel_servers;
        Alcotest.test_case "priority dispatch" `Quick test_resource_priority;
        Alcotest.test_case "non-preemptive" `Quick test_resource_nonpreemptive;
        Alcotest.test_case "utilization accounting" `Quick test_resource_utilization;
        Alcotest.test_case "queue visibility" `Quick test_resource_queue_depth_visibility;
        qcheck prop_resource_conserves_jobs;
      ] );
  ]
