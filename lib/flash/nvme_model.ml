open Reflex_engine
open Reflex_telemetry

(* Each die is an independent single-server queue; requests are routed to
   the less-loaded of two randomly chosen dies ("power of two choices",
   approximating the striping + limited-queue parallelism of a real SSD).
   Reads are high priority but service is non-preemptive, so a read routed
   to a die mid-program or mid-erase waits — the physical root of the
   read/write interference in the paper's Figure 1.

   Nothing on the I/O path allocates in steady state.  An I/O lives in a
   slot of the [io] arena from [submit] to completion (a write's slot
   also outlives its acknowledgement until its last backend chunk is
   programmed), and every die job in a slot of the [job] arena; both
   are structure-of-arrays, start empty and double in cold helpers.  The
   stages move between them on continuations made once per device, each
   taking a slot. *)

(* Per-I/O state. *)
type io = {
  mutable k : (int -> unit) array; (* caller's completion ... *)
  mutable arg : int array; (* ... and its argument *)
  mutable submitted : Time.t array;
  mutable sectors : int array;
  mutable chunks : int array; (* write: backend chunks not yet programmed *)
  mutable acked : bool array; (* write: acknowledgement delivered *)
  mutable free : int array;
  mutable free_len : int;
}

(* Per-die-job state: the die, its (slowed) service for the die-work
   ledger, and the continuation to run at completion. *)
type job = {
  mutable die : int array;
  mutable service : Time.t array;
  mutable jk : (int -> unit) array;
  mutable jarg : int array;
  mutable jfree : int array;
  mutable jfree_len : int;
}

type t = {
  sim : Sim.t;
  p : Device_profile.t;
  prng : Prng.t;
  dies : Resource.t array;
  die_work : Time.t array; (* outstanding service time per die *)
  die_programs : int array; (* programs since last erase, per die *)
  mutable last_write : Time.t option;
  mutable wbuf_used : int;
  wbuf_waiters : int Queue.t; (* write I/O slots waiting for a buffer slot *)
  mutable reads_done : int;
  mutable writes_done : int;
  (* ---- fault-injection state (lib/faults) ----
     [faulty] is the single guard the routing/service hot path reads:
     false (the default) means all arrays below are identity and the
     pre-fault code path runs unchanged — including identical PRNG draw
     order, which is what keeps fault-free chaos builds byte-identical
     to plain builds. *)
  mutable faulty : bool;
  die_ok : bool array; (* false: die failed, excluded from routing *)
  die_slowdown : float array; (* >=1.0 service multiplier per die *)
  mutable failed_dies : int;
  mutable gc_storm_bursts : int; (* injected erase bursts, observability *)
  (* Observability: [tel_on] is a copy of the telemetry instance's
     immutable enabled bit; the completion-path histogram records are
     skipped on that single test when telemetry is off. *)
  tel_on : bool;
  h_read : Reflex_stats.Hdr_histogram.t; (* flash/read_ns *)
  h_write : Reflex_stats.Hdr_histogram.t; (* flash/write_ns *)
  (* Cost profiler (lib/obs), cached off the telemetry instance; scopes
     the submission path under the Flash bucket.  Disabled by default. *)
  prof : Reflex_obs.Profiler.t;
  io : io;
  job : job;
  mutable last_latency : Time.t; (* of the I/O whose completion is running *)
  (* stage continuations, made once in [create] *)
  mutable job_done : int -> unit; (* die-job slot *)
  mutable read_die_done : int -> unit; (* I/O slot *)
  mutable read_done : int -> unit; (* I/O slot *)
  mutable write_acked : int -> unit; (* I/O slot *)
  mutable chunk_done : int -> unit; (* I/O slot * n_dies + die *)
}

let read_only_mode t =
  match t.last_write with
  | None -> true
  | Some w -> Time.(Time.diff (Sim.now t.sim) w > t.p.ro_window)

(* Wear lengthens every die operation: programs and erases take longer on
   aged cells, and reads pay more error-correction retries. *)
let noisy t ~sigma base =
  Time.scale base (t.p.wear *. Prng.lognormal t.prng ~median:1.0 ~sigma)

(* Remap a die index to the next healthy die (wrapping).  Only reached
   when at least one die has failed; if somehow every die is down, the
   original index is kept (the device keeps limping rather than
   deadlocking — the controller would remap to spare blocks). *)
let healthy_die t i =
  if t.failed_dies = 0 then i
  else begin
    let n = Array.length t.dies in
    let k = ref i and steps = ref 0 in
    while (not t.die_ok.(!k)) && !steps < n do
      k := (!k + 1) mod n;
      incr steps
    done;
    !k
  end

(* Least-outstanding-work of two random choices.  The PRNG draws happen
   unconditionally (same order as the fault-free path); the remap to
   healthy dies only runs once a die has actually failed. *)
let pick_die t =
  let n = Array.length t.dies in
  let i = Prng.int t.prng n in
  let j = Prng.int t.prng n in
  (* no tuple: this runs once per read dispatch *)
  let i = if t.faulty then healthy_die t i else i in
  let j = if t.faulty then healthy_die t j else j in
  if Time.(t.die_work.(i) <= t.die_work.(j)) then i else j

let noop_k (_ : int) = ()

let extend a ncap fill =
  let b = Array.make ncap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Cold path: double the I/O arena. *)
let grow_io io =
  let cap = Array.length io.arg in
  let ncap = if cap = 0 then 16 else cap * 2 in
  io.k <- extend io.k ncap noop_k;
  io.arg <- extend io.arg ncap 0;
  io.submitted <- extend io.submitted ncap Time.zero;
  io.sectors <- extend io.sectors ncap 0;
  io.chunks <- extend io.chunks ncap 0;
  io.acked <- extend io.acked ncap false;
  io.free <- extend io.free ncap 0;
  for slot = ncap - 1 downto cap do
    io.free.(io.free_len) <- slot;
    io.free_len <- io.free_len + 1
  done

(* Cold path: double the die-job arena. *)
let grow_job j =
  let cap = Array.length j.die in
  let ncap = if cap = 0 then 16 else cap * 2 in
  j.die <- extend j.die ncap 0;
  j.service <- extend j.service ncap Time.zero;
  j.jk <- extend j.jk ncap noop_k;
  j.jarg <- extend j.jarg ncap 0;
  j.jfree <- extend j.jfree ncap 0;
  for slot = ncap - 1 downto cap do
    j.jfree.(j.jfree_len) <- slot;
    j.jfree_len <- j.jfree_len + 1
  done

let alloc_io t k arg ~sectors =
  let io = t.io in
  if io.free_len = 0 then grow_io io;
  io.free_len <- io.free_len - 1;
  let slot = io.free.(io.free_len) in
  io.k.(slot) <- k;
  io.arg.(slot) <- arg;
  io.submitted.(slot) <- Sim.now t.sim;
  io.sectors.(slot) <- sectors;
  io.chunks.(slot) <- 0;
  io.acked.(slot) <- false;
  slot

let free_io t slot =
  let io = t.io in
  io.k.(slot) <- noop_k;
  io.free.(io.free_len) <- slot;
  io.free_len <- io.free_len + 1

(* Deliver an I/O's completion: the latency goes to [hist] (when
   telemetry is on) and is read back through [last_latency] while the
   caller's continuation runs.  The slot is freed first when [free]. *)
let complete t slot hist ~free =
  let io = t.io in
  let latency = Time.diff (Sim.now t.sim) io.submitted.(slot) in
  if t.tel_on then Reflex_stats.Hdr_histogram.record hist (latency :> int);
  t.last_latency <- latency;
  let k = io.k.(slot) and arg = io.arg.(slot) in
  if free then free_io t slot;
  k arg

let run_on_die t ~die ~priority ~service k arg =
  (* Die slowdown (wear-out, thermal throttling, firmware pauses): a
     per-die service multiplier, identity unless a fault armed it. *)
  let service =
    if t.faulty && t.die_slowdown.(die) <> 1.0 then Time.scale service t.die_slowdown.(die)
    else service
  in
  t.die_work.(die) <- Time.add t.die_work.(die) service;
  let j = t.job in
  if j.jfree_len = 0 then grow_job j;
  j.jfree_len <- j.jfree_len - 1;
  let js = j.jfree.(j.jfree_len) in
  j.die.(js) <- die;
  j.service.(js) <- service;
  j.jk.(js) <- k;
  j.jarg.(js) <- arg;
  (* Constant labels: a variable [~priority] would box [Some priority]. *)
  match (priority : Resource.priority) with
  | High -> Resource.submit t.dies.(die) ~priority:High ~service t.job_done js
  | Low -> Resource.submit t.dies.(die) ~priority:Low ~service t.job_done js

(* A die job completes: release its die occupancy, then continue. *)
let job_done t js =
  let j = t.job in
  let die = j.die.(js) in
  t.die_work.(die) <- Time.sub t.die_work.(die) j.service.(js);
  let k = j.jk.(js) and arg = j.jarg.(js) in
  j.jk.(js) <- noop_k;
  j.jfree.(j.jfree_len) <- js;
  j.jfree_len <- j.jfree_len + 1;
  k arg

let submit_read t ~bytes k arg =
  let sectors = Io_op.sectors_of_bytes bytes in
  let base = Time.scale t.p.t_read (float_of_int sectors) in
  let occupancy = if read_only_mode t then Time.scale base (1.0 /. t.p.ro_speedup) else base in
  let service = noisy t ~sigma:t.p.service_sigma occupancy in
  let slot = alloc_io t k arg ~sectors in
  let die = pick_die t in
  run_on_die t ~die ~priority:Resource.High ~service t.read_die_done slot

let read_die_done t slot = ignore (Sim.after1 t.sim t.p.read_pipeline t.read_done slot)

let read_done t slot =
  t.reads_done <- t.reads_done + 1;
  complete t slot t.h_read ~free:true

(* Backend work for one write: program jobs plus an erase burst every
   [erase_every] programs on a die.  All low priority: reads dispatch
   first, but cannot preempt a job once started.  The program work is
   split into ~2-token chunks spread over the dies (real controllers
   interleave page programs across planes); the blocking unit seen by a
   read is therefore a chunk or an erase, not one monolithic program. *)
let chunk_tokens = 2.0

let erase_service p =
  Time.scale p.Device_profile.t_read (p.erase_frac *. float_of_int p.erase_every *. chunk_tokens)

let submit_backend t slot =
  let p = t.p in
  let sectors = t.io.sectors.(slot) in
  let total_tokens = p.write_cost *. float_of_int sectors *. (1.0 -. p.erase_frac) in
  let n_chunks = max 1 (int_of_float (Float.round (total_tokens /. chunk_tokens))) in
  let chunk = Time.scale p.t_read (total_tokens /. float_of_int n_chunks) in
  t.io.chunks.(slot) <- n_chunks;
  let n_dies = Array.length t.dies in
  for _ = 1 to n_chunks do
    let die = pick_die t in
    run_on_die t ~die ~priority:Resource.Low ~service:(noisy t ~sigma:p.service_sigma chunk)
      t.chunk_done ((slot * n_dies) + die)
  done

(* A write holds a DRAM buffer slot from [run_with_slot] until its
   backend is programmed; its I/O slot is freed once that has happened
   and it was acknowledged. *)
let run_with_slot t slot =
  t.wbuf_used <- t.wbuf_used + 1;
  submit_backend t slot;
  let ack = noisy t ~sigma:t.p.write_ack_sigma t.p.t_write_ack in
  ignore (Sim.after1 t.sim ack t.write_acked slot)

let write_acked t slot =
  t.writes_done <- t.writes_done + 1;
  t.io.acked.(slot) <- true;
  complete t slot t.h_write ~free:(t.io.chunks.(slot) = 0)

let chunk_done t code =
  let n_dies = Array.length t.dies in
  let slot = code / n_dies and die = code mod n_dies in
  let p = t.p in
  let left = t.io.chunks.(slot) - 1 in
  t.io.chunks.(slot) <- left;
  if left = 0 then begin
    (* The DRAM buffer slot frees once the data is programmed. *)
    t.wbuf_used <- t.wbuf_used - 1;
    if t.io.acked.(slot) then free_io t slot;
    if not (Queue.is_empty t.wbuf_waiters) then run_with_slot t (Queue.take t.wbuf_waiters)
  end;
  t.die_programs.(die) <- t.die_programs.(die) + 1;
  if t.die_programs.(die) >= p.erase_every then begin
    t.die_programs.(die) <- 0;
    run_on_die t ~die ~priority:Resource.Low
      ~service:(noisy t ~sigma:p.service_sigma (erase_service p))
      noop_k 0
  end

let submit_write t ~bytes k arg =
  let sectors = Io_op.sectors_of_bytes bytes in
  t.last_write <- Some (Sim.now t.sim);
  let slot = alloc_io t k arg ~sectors in
  if t.wbuf_used < t.p.write_buffer_slots then run_with_slot t slot
  else Queue.add slot t.wbuf_waiters

let create ?(telemetry = Telemetry.disabled) sim ~profile ~prng =
  let n = profile.Device_profile.n_dies in
  let t =
    {
      sim;
      p = profile;
      prng;
      dies = Array.init n (fun _ -> Resource.create sim);
      die_work = Array.make n Time.zero;
      die_programs = Array.make n 0;
      last_write = None;
      wbuf_used = 0;
      wbuf_waiters = Queue.create ();
      reads_done = 0;
      writes_done = 0;
      faulty = false;
      die_ok = Array.make n true;
      die_slowdown = Array.make n 1.0;
      failed_dies = 0;
      gc_storm_bursts = 0;
      tel_on = Telemetry.enabled telemetry;
      h_read = Telemetry.histogram telemetry "flash/read_ns";
      h_write = Telemetry.histogram telemetry "flash/write_ns";
      prof = Telemetry.profiler telemetry;
      io =
        {
          k = [||];
          arg = [||];
          submitted = [||];
          sectors = [||];
          chunks = [||];
          acked = [||];
          free = [||];
          free_len = 0;
        };
      job = { die = [||]; service = [||]; jk = [||]; jarg = [||]; jfree = [||]; jfree_len = 0 };
      last_latency = Time.zero;
      job_done = noop_k;
      read_die_done = noop_k;
      read_done = noop_k;
      write_acked = noop_k;
      chunk_done = noop_k;
    }
  in
  t.job_done <- job_done t;
  t.read_die_done <- read_die_done t;
  t.read_done <- read_done t;
  t.write_acked <- write_acked t;
  t.chunk_done <- chunk_done t;
  if t.tel_on then begin
    Telemetry.register_gauge telemetry "flash/wbuf_used" (fun () -> float_of_int t.wbuf_used);
    Telemetry.register_gauge telemetry "flash/wbuf_waiters" (fun () ->
        float_of_int (Queue.length t.wbuf_waiters));
    Telemetry.register_gauge telemetry "flash/reads_done" (fun () -> float_of_int t.reads_done);
    Telemetry.register_gauge telemetry "flash/writes_done" (fun () ->
        float_of_int t.writes_done);
    Telemetry.register_gauge telemetry "flash/util" (fun () ->
        Array.fold_left (fun acc d -> acc +. Resource.utilization d) 0.0 t.dies
        /. float_of_int (Array.length t.dies))
  end;
  t

let profile t = t.p

let submit t ~kind ~bytes k arg =
  if bytes <= 0 then invalid_arg "Nvme_model.submit: non-positive size";
  Reflex_obs.Profiler.enter t.prof Reflex_obs.Profiler.Subsystem.Flash;
  (match (kind : Io_op.kind) with
  | Read -> submit_read t ~bytes k arg
  | Write -> submit_write t ~bytes k arg);
  Reflex_obs.Profiler.leave t.prof Reflex_obs.Profiler.Subsystem.Flash

let last_latency t = t.last_latency

let reads_completed t = t.reads_done
let writes_completed t = t.writes_done
let write_buffer_used t = t.wbuf_used

(* ---- Fault-injection API (driven by Reflex_faults.Injector) ---------- *)

let die_count t = Array.length t.dies

let check_die t die =
  if die < 0 || die >= Array.length t.dies then
    invalid_arg (Printf.sprintf "Nvme_model: die %d out of range" die)

let fail_die t ~die =
  check_die t die;
  if t.die_ok.(die) then begin
    t.die_ok.(die) <- false;
    t.failed_dies <- t.failed_dies + 1;
    t.faulty <- true
  end

let restore_die t ~die =
  check_die t die;
  if not t.die_ok.(die) then begin
    t.die_ok.(die) <- true;
    t.failed_dies <- t.failed_dies - 1
  end

let set_die_slowdown t ~die ~factor =
  check_die t die;
  if factor < 1.0 then invalid_arg "Nvme_model.set_die_slowdown: factor < 1.0";
  t.die_slowdown.(die) <- factor;
  if factor <> 1.0 then t.faulty <- true

let clear_die_slowdowns t = Array.fill t.die_slowdown 0 (Array.length t.die_slowdown) 1.0

(* A GC storm queues [bursts_per_die] extra low-priority erase jobs on
   every die, spread evenly over [duration].  The erase service time is
   the exact (noise-free) per-cycle erase cost from the profile, so the
   storm itself draws nothing from the device PRNG — the fault-free
   request stream sees the same random sequence it would have seen, just
   behind more queued erase work (the intended interference). *)
let gc_storm t ~duration ~bursts_per_die =
  if bursts_per_die <= 0 then invalid_arg "Nvme_model.gc_storm: bursts_per_die <= 0";
  let erase = erase_service t.p in
  let n = Array.length t.dies in
  let gap = Time.scale duration (1.0 /. float_of_int bursts_per_die) in
  for b = 0 to bursts_per_die - 1 do
    let fire = Time.add (Sim.now t.sim) (Time.scale gap (float_of_int b)) in
    ignore
      (Sim.at t.sim fire (fun () ->
           for die = 0 to n - 1 do
             if t.die_ok.(die) then begin
               t.gc_storm_bursts <- t.gc_storm_bursts + 1;
               run_on_die t ~die ~priority:Resource.Low ~service:erase noop_k 0
             end
           done))
  done

let failed_dies t = t.failed_dies
let gc_storm_bursts t = t.gc_storm_bursts

(* Usable fraction of nominal service capacity under the current die
   health: a failed die contributes nothing, a slowed die contributes
   1/slowdown of its share.  1.0 when healthy — the control plane's
   degradation re-pricing multiplies its calibrated token rate by this. *)
let effective_capacity t =
  let n = Array.length t.dies in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    if t.die_ok.(i) then sum := !sum +. (1.0 /. t.die_slowdown.(i))
  done;
  !sum /. float_of_int n

let utilization t =
  let n = Array.length t.dies in
  let sum = Array.fold_left (fun acc d -> acc +. Resource.utilization d) 0.0 t.dies in
  sum /. float_of_int n
