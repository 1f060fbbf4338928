(* Host-cost benchmark of the simulator.

     hostbench --workload NAME --seed N --seconds S --trace 0|1 [--digests FILE]
     hostbench --digest-only --workload NAME --seed N
     hostbench --selftest [--seed N]

   One process, one domain.  A run repeats one workload (same seed,
   fresh world each time) until [--seconds] of host time have passed,
   with at least three timed repetitions after an untimed warm-up one,
   and reports medians.  Each
   repetition builds the world, admits the tenants and creates the
   generators (the set-up, timed per phase), warms up, then runs the
   fixed simulated window as consecutive [Sim.run ~until] slices, each
   timed on the host, and finally drains.

   Host times are in reference seconds: process CPU seconds scaled by
   how fast a fixed kernel ran next to them (see {!Reference}), so the
   figures do not count time the process spent descheduled and do not
   drift with the load neighbours put on a shared host.

   [--trace 0] prints the end-to-end metrics of untraced repetitions.
   [--trace 1] alternates untraced and traced repetitions (a
   [Reflex_obs.Profiler] attached through [Telemetry.set_profiler], with
   the [Engine] scope around every slice) and prints the per-layer
   metrics of the traced ones plus the traced-versus-untraced throughput
   gap.

   Every repetition is checked: the workload's shape predicates must
   hold, its digest of the simulated results must equal the first
   repetition's (same-seed rerun; in traced runs this is also observer
   neutrality), and, for a seed listed in the [--digests] file, the
   recorded digest.  A repetition that fails a check counts all of its
   requests as failed.  The last line of standard output is one JSON
   object: correct, attempted, failed, metrics. *)

open Reflex_engine
module W = Workload
module Profiler = Reflex_obs.Profiler

let now_ns = W.now_ns
let cpu_ns = Reference.cpu_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)
(* ------------------------------------------------------------------ *)

let subsystems = Array.of_list Profiler.Subsystem.all

type prof = { wall : float array; minor : float array; calls : int array }

let prof_snapshot p =
  {
    wall = Array.map (Profiler.wall_s p) subsystems;
    minor = Array.map (Profiler.minor_words p) subsystems;
    calls = Array.map (Profiler.calls p) subsystems;
  }

let prof_delta a b =
  {
    wall = Array.map2 (fun x y -> y -. x) a.wall b.wall;
    minor = Array.map2 (fun x y -> y -. x) a.minor b.minor;
    calls = Array.map2 (fun x y -> y - x) a.calls b.calls;
  }

type rep = {
  traced : bool;
  world_ms : float;
  admit_ms : float;
  gen_ms : float;
  warmup_ms : float;
  window_s : float;  (** reference seconds inside the window's slices *)
  raw_window_s : float;  (** the same, in measured CPU seconds *)
  ref_ns : float;  (** mean reference sample of the window, ns per step *)
  ratios : float array;  (** per slice: host ms per simulated ms *)
  completed : int;  (** completions inside the window *)
  events : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  c0 : W.counters;
  c1 : W.counters;
  prof : prof;
  dispatch_ns : float;
  dispatches : int;
  probe_ns : float;
  probes : int;
  hop_ns : float;
  util : float;
  deficits : int;
  flight_dropped : int;
  untiled : int;
  tenants_per_thread : float;
  outcome : W.outcome;
  digest : string;
}

let setup_s r = (r.world_ms +. r.admit_ms +. r.gen_ms) /. 1e3
let throughput r = float_of_int r.completed /. r.window_s

(* Host times below are CPU time in reference seconds (see
   {!Reference}): every timed span is bracketed by two reference
   samples, and the window takes one sample per [group] slices.  Layer
   times the profiler and the rack hooks measure on the wall clock are
   scaled by the window's reference seconds per wall second. *)
let group = 10

let run_rep kind env ~traced =
  Gc.compact ();
  let profiler = if traced then Profiler.create () else Profiler.disabled in
  let host = W.new_host ~timed:traced in
  let ref0 = Reference.sample () in
  let t0 = cpu_ns () in
  let admit = W.build kind env ~profiler ~host in
  let t1 = cpu_ns () in
  let gen = admit () in
  let t2 = cpu_ns () in
  let live = gen () in
  let t3 = cpu_ns () in
  let ref1 = Reference.sample () in
  let setup_f = Reference.factor ref0 ref1 in
  let sim = live.W.sim and tl = live.W.tl in
  let w0 = Time.add (Sim.now sim) tl.W.warmup in
  let t3' = cpu_ns () in
  ignore (Sim.run ~until:w0 sim);
  let t4 = cpu_ns () in
  let n = tl.W.slices in
  let refs = Array.make (((n + group - 1) / group) + 1) 0.0 in
  refs.(0) <- Reference.sample ();
  live.W.start_window ();
  let c0 = live.W.counters () in
  let e0 = Sim.events_executed sim in
  let p0 = prof_snapshot profiler in
  let hd0 = host.W.dispatch_ns and hn0 = host.W.dispatches in
  let hp0 = host.W.probe_ns and hq0 = host.W.probes in
  let g0 = Gc.quick_stat () in
  let window_ns = Time.to_float_ns tl.W.window in
  let raw = Array.make n 0 in
  let wall_ns = ref 0 in
  for i = 1 to n do
    let until = Time.add w0 (Time.of_float_ns (window_ns *. float_of_int i /. float_of_int n)) in
    let w = now_ns () in
    let s = cpu_ns () in
    Profiler.enter profiler Profiler.Subsystem.Engine;
    ignore (Sim.run ~until sim);
    Profiler.leave profiler Profiler.Subsystem.Engine;
    raw.(i - 1) <- cpu_ns () - s;
    wall_ns := !wall_ns + (now_ns () - w);
    if i mod group = 0 || i = n then refs.((i + group - 1) / group) <- Reference.sample ()
  done;
  let g1 = Gc.quick_stat () in
  let slice_ms = Time.to_float_ms tl.W.window /. float_of_int n in
  let scaled =
    Array.mapi (fun i d -> float_of_int d *. Reference.factor refs.(i / group) refs.((i / group) + 1)) raw
  in
  let window_s = Array.fold_left ( +. ) 0.0 scaled /. 1e9 in
  let raw_window_s = float_of_int (Array.fold_left ( + ) 0 raw) /. 1e9 in
  (* Reference seconds per wall second over the window, for the layer
     times measured on the wall clock inside it. *)
  let wf = window_s /. (float_of_int !wall_ns /. 1e9) in
  let prof =
    let d = prof_delta p0 (prof_snapshot profiler) in
    { d with wall = Array.map (fun w -> w *. wf) d.wall }
  in
  let events = Sim.events_executed sim - e0 in
  live.W.end_window ();
  let c1 = live.W.counters () in
  let util = live.W.thread_util () and deficits = live.W.deficits () in
  let flight_dropped = live.W.flight_dropped () in
  ignore (Sim.run ~until:(Time.add (Sim.now sim) W.drain) sim);
  let outcome = live.W.finish () in
  let untiled = live.W.rack_untiled () in
  (* The hop-record probe runs after the results are taken. *)
  let hop_ns =
    if traced && kind = W.Rack_po2c then begin
      let k = 1_000_000 in
      let s = now_ns () in
      live.W.hop_probe k;
      float_of_int (now_ns () - s) /. float_of_int k *. wf
    end
    else 0.0
  in
  {
    traced;
    world_ms = ms_of_ns (t1 - t0) *. setup_f;
    admit_ms = ms_of_ns (t2 - t1) *. setup_f;
    gen_ms = ms_of_ns (t3 - t2) *. setup_f;
    warmup_ms = ms_of_ns (t4 - t3') *. Reference.factor ref1 refs.(0);
    window_s;
    raw_window_s;
    ref_ns = Array.fold_left ( +. ) 0.0 refs /. float_of_int (Array.length refs);
    ratios = Array.map (fun ns -> ns /. 1e6 /. slice_ms) scaled;
    completed = c1.W.completed - c0.W.completed;
    events;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    c0;
    c1;
    prof;
    dispatch_ns = float_of_int (host.W.dispatch_ns - hd0) *. wf;
    dispatches = host.W.dispatches - hn0;
    probe_ns = float_of_int (host.W.probe_ns - hp0) *. wf;
    probes = host.W.probes - hq0;
    hop_ns;
    util;
    deficits;
    flight_dropped;
    untiled;
    tenants_per_thread = live.W.tenants_per_thread;
    outcome;
    digest = Digest.to_hex (Digest.string outcome.W.digest_text);
  }

(* ------------------------------------------------------------------ *)
(* Statistics and metrics                                              *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Highest percentile with at least ten slices beyond it. *)
let tail_pct slices = 100.0 *. (1.0 -. (10.0 /. float_of_int slices))
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a b = ratio a (float_of_int b)
let sub_i = Profiler.Subsystem.to_int
let wall p s = p.wall.(sub_i s)
let pminor p s = p.minor.(sub_i s)
let calls p s = p.calls.(sub_i s)

(* Per-layer metrics of one traced repetition.  Profiler buckets are
   window deltas.  NVMe submission runs inside the scheduler round, so
   the QoS bucket encloses the flash one: QoS self time is the round
   minus flash, and engine self time is the Engine scope minus the
   outermost nested scopes (QoS, net, telemetry, monitor). *)
let per_layer r =
  let open Profiler.Subsystem in
  let p = r.prof and c0 = r.c0 and c1 = r.c1 in
  let req = r.completed in
  let nested f = f Qos +. f Net +. f Telemetry +. f Monitor in
  let engine_self_s = wall p Engine -. nested (wall p) in
  let engine_minor = pminor p Engine -. nested (pminor p) in
  let qos_self_s = Float.max 0.0 (wall p Qos -. wall p Flash) in
  let qos_minor = Float.max 0.0 (pminor p Qos -. pminor p Flash) in
  let rounds = calls p Qos in
  let ns_per_round = per (qos_self_s *. 1e9) rounds in
  let ios = calls p Flash in
  let dreads = c1.W.flash_reads - c0.W.flash_reads in
  let dwrites = c1.W.flash_writes - c0.W.flash_writes in
  let msgs = calls p Net in
  let rack = Array.length c0.W.dispatched > 0 in
  let fi = float_of_int in
  [
    ("setup.world_ms", "ms", r.world_ms);
    ("setup.admit_ms", "ms", r.admit_ms);
    ("setup.gen_ms", "ms", r.gen_ms);
    ("setup.warmup_ms", "ms", r.warmup_ms);
    ("engine.events_per_req", "events", per (fi r.events) req);
    ("engine.events_per_host_s", "1/s", ratio (fi r.events) r.window_s);
    ("engine.self_ms", "ms", engine_self_s *. 1e3);
    ("engine.minor_words_per_req", "words", per engine_minor req);
    ("qos.self_ms", "ms", qos_self_s *. 1e3);
    ("qos.rounds", "count", fi rounds);
    ("qos.reqs_per_round", "reqs", per (fi req) rounds);
    ("qos.ns_per_round", "ns", ns_per_round);
    ("qos.ns_per_round_per_tenant", "ns", ratio ns_per_round r.tenants_per_thread);
    ("qos.minor_words_per_round", "words", per qos_minor rounds);
    ("core.tokens_per_req", "tokens", per (c1.W.tokens -. c0.W.tokens) req);
    ("core.thread_util", "frac", r.util);
    ("core.deficit_notifications", "count", fi r.deficits);
    ("flash.self_ms", "ms", wall p Flash *. 1e3);
    ("flash.ns_per_io", "ns", per (wall p Flash *. 1e9) ios);
    ("flash.minor_words_per_io", "words", per (pminor p Flash) ios);
    ("flash.write_frac", "frac", per (fi dwrites) (dreads + dwrites));
    ("net.self_ms", "ms", wall p Net *. 1e3);
    ("net.msgs_per_req", "msgs", per (fi msgs) req);
    ("net.ns_per_msg", "ns", per (wall p Net *. 1e9) msgs);
    ("net.bytes_per_req", "bytes", per (fi (c1.W.bytes - c0.W.bytes)) req);
    ("client.issued", "count", fi (c1.W.issued - c0.W.issued));
    ("client.completed", "count", fi req);
    ("client.errors", "count", fi (c1.W.errors - c0.W.errors));
    ("client.retries", "count", fi (c1.W.retries - c0.W.retries));
    ("telemetry.self_ms", "ms", wall p Telemetry *. 1e3);
    ("telemetry.spans_per_req", "spans", per (fi (c1.W.spans - c0.W.spans)) req);
    ("obs.flight_records_per_req", "records", per (fi (c1.W.flight - c0.W.flight)) req);
    ("obs.flight_dropped", "count", fi r.flight_dropped);
    ("monitor.self_ms", "ms", wall p Monitor *. 1e3);
    ("monitor.ticks", "count", fi (calls p Monitor));
    ("rack.dispatch_ns", "ns", per r.dispatch_ns r.dispatches);
    ("rack.probe_ns", "ns", per r.probe_ns r.probes);
    ( "rack.imbalance",
      "ratio",
      if rack then W.imbalance ~before:c0.W.dispatched ~after:c1.W.dispatched else 0.0 );
    ("rack_obs.traced_per_req", "reqs", per (fi (c1.W.rack_traced - c0.W.rack_traced)) req);
    ("rack_obs.untiled", "count", fi r.untiled);
    ("rack_obs.ns_per_hop_record", "ns", r.hop_ns);
    ("gc.minor_collections", "count", fi r.minor_gcs);
    ("gc.major_collections", "count", fi r.major_gcs);
    ("gc.promoted_words_per_req", "words", per r.promoted_words req);
  ]

(* Median of each named metric over a set of repetitions. *)
let medians metrics reps =
  match List.map metrics reps with
  | [] -> []
  | first :: _ as rows ->
    List.mapi
      (fun i (name, unit, _) ->
        let value row = match List.nth row i with _, _, v -> v in
        (name, unit, median (Array.of_list (List.map value rows))))
      first

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* Recorded digests: lines of "workload seed md5"; '#' starts a comment. *)
let load_digests path =
  if path = "" || not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec loop acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        List.rev acc
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; s; d ] when String.length w > 0 && w.[0] <> '#' -> (
          match int_of_string_opt s with
          | Some seed -> loop ((w, seed, d) :: acc)
          | None -> loop acc)
        | _ -> loop acc)
    in
    loop []
  end

let recorded_digest digests kind seed =
  List.find_map
    (fun (w, s, d) -> if w = W.name kind && s = seed then Some d else None)
    digests

(* A repetition passes when every predicate holds, its digest equals the
   run's first digest, and it matches the recorded one if any. *)
let rep_failures ~first ~recorded r =
  let preds =
    List.filter_map (fun (label, ok) -> if ok then None else Some label) r.outcome.W.checks
  in
  let rerun = if r.digest = first then [] else [ "digest differs from the run's first repetition" ] in
  let rec_ =
    match recorded with
    | Some d when d <> r.digest -> [ "digest differs from the recorded " ^ d ]
    | _ -> []
  in
  preds @ rerun @ rec_

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* JSON numbers: every digit as measured; non-finite values have no
   JSON form and read as 0. *)
let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_metric (name, unit, v) = Printf.printf "  %-32s %18.6f %s\n" name v unit

let print_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* Set-up alone (world, admission, generators), timed and discarded:
   the extra samples that steady the [setup_s] median of workloads whose
   set-up takes well under a millisecond. *)
let setup_only kind env =
  Gc.compact ();
  let host = W.new_host ~timed:false in
  let ref0 = Reference.sample () in
  let t0 = cpu_ns () in
  let admit = W.build kind env ~profiler:Profiler.disabled ~host in
  let gen = admit () in
  let live = gen () in
  let t1 = cpu_ns () in
  let ref1 = Reference.sample () in
  ignore (Sys.opaque_identity live);
  float_of_int (t1 - t0) /. 1e9 *. Reference.factor ref0 ref1

let min_setups = 41
let setup_extra_s = 4.0

(* Whole-process budget: a run stops adding repetitions once the next
   one would likely end past this many host seconds. *)
let budget_s = 150.0
let min_reps = 3

let measure kind env ~seconds ~trace ~digests =
  let start = now_ns () in
  let elapsed () = float_of_int (now_ns () - start) /. 1e9 in
  let reps = ref [] in
  let last = ref 0.0 in
  let step () =
    let s = elapsed () in
    if trace then begin
      reps := run_rep kind env ~traced:true :: run_rep kind env ~traced:false :: !reps
    end
    else reps := run_rep kind env ~traced:false :: !reps;
    last := elapsed () -. s
  in
  let count () = if trace then List.length !reps / 2 else List.length !reps in
  let min_steps = if trace then 2 else min_reps in
  (* The first repetition in a process runs on a fresh heap and reads
     faster than every later one; it is checked but not timed. *)
  let warm = run_rep kind env ~traced:false in
  (* Peak heap of one world on a fresh heap: later repetitions reuse a
     heap whose top depends on how many of them the time allowed. *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  step ();
  while
    count () < min_steps
    || (elapsed () < float_of_int seconds && elapsed () +. !last < budget_s)
  do
    step ()
  done;
  let timed = List.rev !reps in
  let reps = warm :: timed in
  let first = warm.digest in
  let recorded = recorded_digest digests kind env.W.seed in
  let failures = List.map (fun r -> (r, rep_failures ~first ~recorded r)) reps in
  let attempted = List.fold_left (fun a r -> a + r.outcome.W.issued_total) 0 reps in
  let failed =
    List.fold_left
      (fun a (r, f) -> a + if f = [] then r.outcome.W.failed_total else r.outcome.W.issued_total)
      0 failures
  in
  let correct = failed = 0 && List.for_all (fun (_, f) -> f = []) failures in
  let untraced = List.filter (fun r -> not r.traced) timed in
  let traced = List.filter (fun r -> r.traced) timed in
  let tl = W.timeline ~short:env.W.short kind in
  Printf.printf "hostbench %s seed=%d trace=%d reps=%d window=%.0fms slices=%d\n" (W.name kind)
    env.W.seed (if trace then 1 else 0) (List.length reps) (Time.to_float_ms tl.W.window)
    tl.W.slices;
  List.iteri
    (fun i r ->
      Printf.printf
        "rep %d %s: %.1f req/s (%.1f per measured CPU s), setup %.4f s, window %.3f s, reference \
         %.3f ns/step\n"
        i
        (if i = 0 then "warm-up" else if r.traced then "traced" else "untraced")
        (throughput r)
        (float_of_int r.completed /. r.raw_window_s)
        (setup_s r) r.window_s r.ref_ns)
    reps;
  let r0 = List.hd reps in
  List.iter (fun (label, ok) -> Printf.printf "check %-60s %s\n" label (if ok then "PASS" else "FAIL"))
    r0.outcome.W.checks;
  List.iter
    (fun (r, f) ->
      let side = if r.traced then "traced" else "untraced" in
      List.iter (fun msg -> Printf.printf "check FAIL (%s rep): %s\n" side msg) f)
    failures;
  List.iter (fun line -> Printf.printf "fidelity %s\n" line) r0.outcome.W.fidelity;
  Printf.printf "digest %s (%s)\n" first
    (match recorded with
    | None -> "no recorded digest for this seed"
    | Some d when d = first -> "matches the recorded digest"
    | Some _ -> "DIFFERS from the recorded digest");
  let failed_frac = if attempted = 0 then 1.0 else float_of_int failed /. float_of_int attempted in
  let metrics =
    if trace then begin
      let gap =
        let u = median (Array.of_list (List.map throughput untraced)) in
        let t = median (Array.of_list (List.map throughput traced)) in
        if t = 0.0 then 0.0 else ((u /. t) -. 1.0) *. 100.0
      in
      Printf.printf "per-layer metrics (median of %d traced repetitions):\n" (List.length traced);
      medians per_layer traced @ [ ("trace.overhead_pct", "%", gap) ]
    end
    else begin
      let setups = ref (List.map setup_s untraced) in
      let extra_start = elapsed () in
      while List.length !setups < min_setups && elapsed () -. extra_start < setup_extra_s do
        setups := setup_only kind env :: !setups
      done;
      let med f = median (Array.of_list (List.map f untraced)) in
      (* Every repetition runs the same simulated work in slice [i] (same
         seed), so the median over repetitions of slice [i] keeps what
         that slice costs the simulator and drops a burst of host
         contention, which lands on different slices in different
         repetitions.  The slice percentiles are taken over these
         per-slice medians. *)
      let per_slice =
        let rs = Array.of_list (List.map (fun r -> r.ratios) untraced) in
        Array.init tl.W.slices (fun i -> median (Array.map (fun a -> a.(i)) rs))
      in
      let slice_pct p = percentile per_slice p in
      Printf.printf
        "end-to-end metrics (median of %d repetitions, set-up of %d; slice p50/p%g over %d \
         per-slice medians of %.3f sim ms each):\n"
        (List.length untraced) (List.length !setups) (tail_pct tl.W.slices) tl.W.slices
        (Time.to_float_ms tl.W.window /. float_of_int tl.W.slices);
      Printf.printf "  %-32s %18.6f %s\n" "failed_frac" failed_frac "frac";
      [
        ("sim_req_per_host_s", "1/s", med throughput);
        ("host_ms_per_sim_ms_p50", "ms/ms", slice_pct 50.0);
        ("host_ms_per_sim_ms_p99", "ms/ms", slice_pct (tail_pct tl.W.slices));
        ("setup_s", "s", median (Array.of_list !setups));
        ("minor_words_per_req", "words", med (fun r -> per r.minor_words r.completed));
        ("peak_heap_mb", "MB", float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6);
        ("completed_frac", "frac", 1.0 -. failed_frac);
      ]
    end
  in
  List.iter print_metric metrics;
  print_json ~correct ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* Self-tests                                                          *)
(* ------------------------------------------------------------------ *)

(* Same seed, same digest, equal to the recorded one; a wrong recorded
   digest is caught; another seed, other inputs that still pass the
   predicates; heap and wheel event queues, and traced and untraced
   runs, equal digests on a short run.  Exit status 1 when any fails. *)
let selftest ~seed ~digests =
  let ok = ref true in
  let report kind label pass =
    if not pass then ok := false;
    Printf.printf "selftest %-15s %-58s %s\n%!" (W.name kind) label (if pass then "PASS" else "FAIL")
  in
  let preds r = List.for_all snd r.outcome.W.checks in
  List.iter
    (fun kind ->
      let env = { W.seed; backend = Sim.Wheel; short = false } in
      let a = run_rep kind env ~traced:false in
      let b = run_rep kind env ~traced:false in
      report kind "predicates hold" (preds a);
      report kind "same seed, same digest on rerun" (a.digest = b.digest);
      let c = run_rep kind { env with W.seed = seed + 1 } ~traced:false in
      (match recorded_digest digests kind seed with
      | Some d -> report kind "digest equals the recorded one" (a.digest = d)
      | None -> report kind "a digest is recorded for this seed" false);
      report kind "a wrong recorded digest fails the repetition"
        (rep_failures ~first:a.digest ~recorded:(Some "0") a <> []);
      report kind "another seed changes the inputs (digest differs)" (c.digest <> a.digest);
      report kind "another seed still passes the predicates" (preds c);
      let short = { env with W.short = true } in
      let h = run_rep kind { short with W.backend = Sim.Heap } ~traced:false in
      let w = run_rep kind short ~traced:false in
      report kind "heap and wheel give equal digests (short run)" (h.digest = w.digest);
      let t = run_rep kind short ~traced:true in
      report kind "traced and untraced give equal digests (short run)" (t.digest = w.digest))
    W.all;
  if !ok then print_endline "SELFTEST OK" else print_endline "SELFTEST FAILED";
  !ok

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let digests = ref "" in
  let digest_only = ref false and self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME read_peak|tenant_scale|mixed_observed|rack_po2c");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S host seconds to keep repeating (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--digests", Arg.Set_string digests, "FILE recorded default-seed digests");
      ("--digest-only", Arg.Set digest_only, " run one repetition and print its digest");
      ("--selftest", Arg.Set self, " run the benchmark's self-tests");
    ]
  in
  let usage = "hostbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("hostbench: " ^ msg);
    exit 2
  in
  if !self then exit (if selftest ~seed:!seed ~digests:(load_digests !digests) then 0 else 1);
  let kind = match W.of_name !workload with Some k -> k | None -> fail ("unknown workload " ^ !workload) in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds < 1 then fail "--seconds must be at least 1";
  let env = { W.seed = !seed; backend = Sim.Wheel; short = false } in
  if !digest_only then begin
    let r = run_rep kind env ~traced:false in
    Printf.printf "%s %d %s\n" (W.name kind) !seed r.digest
  end
  else measure kind env ~seconds:!seconds ~trace:(!trace = 1) ~digests:(load_digests !digests)
