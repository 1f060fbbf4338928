(* Event records live in a structure-of-arrays arena and are recycled on
   pop: [schedule] allocates nothing in steady state (the former
   per-event record is gone).  An [event_id] is an immediate int packing
   the arena slot with a generation counter; the generation is bumped
   when a slot is recycled, so a stale handle held after its event fired
   can never cancel an unrelated later event (ABA safety). *)

(* 22 slot bits = up to ~4M concurrently pending events; 41 generation
   bits on 63-bit ints. *)
let slot_bits = 22
let slot_mask = (1 lsl slot_bits) - 1

type event_id = int

type backend = Heap | Wheel

type queue = Q_heap of Heap.t | Q_wheel of Wheel.t

type t = {
  mutable clock : Time.t;
  queue : queue;
  mutable seq : int;
  mutable executed : int;
  mutable daemon_pending : int; (* daemon events currently queued *)
  mutable cancelled_pending : int; (* cancelled non-daemon events awaiting pop *)
  root_prng : Prng.t;
  (* event arena (parallel arrays indexed by slot) *)
  mutable a_cancelled : bool array;
  mutable a_daemon : bool array;
  mutable a_action : (unit -> unit) array;
  (* int-argument events ({!at1}): the continuation and its argument.  A
     slot holds either a thunk or a continuation, never both; the other
     array keeps its noop there. *)
  mutable a_action1 : (int -> unit) array;
  mutable a_arg : int array;
  mutable a_gen : int array;
  mutable free : int array; (* freelist stack of recycled slots *)
  mutable free_len : int;
}

let default_seed = 0x5EED_0F_F1A5_1234L

(* Backend used by [create] when none is passed explicitly.  Written
   once by the CLI before any simulation exists; reflects the per-run
   [--backend] selection.  Wheel is the default: it is byte-identical to
   the heap at any seed and ~2.5-3x faster on the dataplane event mix
   (see BENCH_BASELINE.json); [--backend heap] keeps the reference
   implementation reachable. *)
let default_backend = ref Wheel

let set_default_backend b = default_backend := b
let get_default_backend () = !default_backend

let with_default_backend b f =
  let saved = !default_backend in
  default_backend := b;
  Fun.protect ~finally:(fun () -> default_backend := saved) f

(* Shared thunk so cancellation and slot recycling can drop an event's
   closure without allocating. *)
let noop_action () = ()
let noop_action1 (_ : int) = ()

let create ?(seed = default_seed) ?backend () =
  let backend = match backend with Some b -> b | None -> !default_backend in
  {
    clock = Time.zero;
    queue = (match backend with Heap -> Q_heap (Heap.create ()) | Wheel -> Q_wheel (Wheel.create ()));
    seq = 0;
    executed = 0;
    daemon_pending = 0;
    cancelled_pending = 0;
    root_prng = Prng.create seed;
    a_cancelled = [||];
    a_daemon = [||];
    a_action = [||];
    a_action1 = [||];
    a_arg = [||];
    a_gen = [||];
    free = [||];
    free_len = 0;
  }

let backend t = match t.queue with Q_heap _ -> Heap | Q_wheel _ -> Wheel

let now t = t.clock
let prng t = t.root_prng

let queue_length t =
  match t.queue with Q_heap h -> Heap.length h | Q_wheel w -> Wheel.length w

let queue_push t ~time ~seq slot =
  match t.queue with
  | Q_heap h -> Heap.push h ~time ~seq slot
  | Q_wheel w -> Wheel.push w ~time ~seq slot

(* The due event's arena slot, or [-1]; its time is then read with
   [queue_popped_time]. *)
let queue_pop_if_le t ~until =
  match t.queue with
  | Q_heap h -> Heap.pop_if_le h ~until
  | Q_wheel w -> Wheel.pop_if_le w ~until

let queue_popped_time t =
  match t.queue with Q_heap h -> Heap.popped_time h | Q_wheel w -> Wheel.popped_time w

(* Cold path: double the arena and push the fresh slots onto the
   freelist (newest first, so low slot numbers are reused first). *)
let grow_arena t =
  let cap = Array.length t.a_gen in
  let ncap = if cap = 0 then 64 else cap * 2 in
  if ncap > slot_mask + 1 then failwith "Sim: event arena exhausted";
  let nc = Array.make ncap false in
  Array.blit t.a_cancelled 0 nc 0 cap;
  t.a_cancelled <- nc;
  let nd = Array.make ncap false in
  Array.blit t.a_daemon 0 nd 0 cap;
  t.a_daemon <- nd;
  let na = Array.make ncap noop_action in
  Array.blit t.a_action 0 na 0 cap;
  t.a_action <- na;
  let na1 = Array.make ncap noop_action1 in
  Array.blit t.a_action1 0 na1 0 cap;
  t.a_action1 <- na1;
  let narg = Array.make ncap 0 in
  Array.blit t.a_arg 0 narg 0 cap;
  t.a_arg <- narg;
  let ng = Array.make ncap 0 in
  Array.blit t.a_gen 0 ng 0 cap;
  t.a_gen <- ng;
  let nf = Array.make ncap 0 in
  Array.blit t.free 0 nf 0 t.free_len;
  t.free <- nf;
  for slot = ncap - 1 downto cap do
    t.free.(t.free_len) <- slot;
    t.free_len <- t.free_len + 1
  done

(* Take a slot off the freelist and mark it live; the caller stores the
   action.  Returns the slot. *)
let alloc_event t ~daemon =
  if t.free_len = 0 then grow_arena t;
  t.free_len <- t.free_len - 1;
  let slot = t.free.(t.free_len) in
  t.a_cancelled.(slot) <- false;
  t.a_daemon.(slot) <- daemon;
  slot

(* Retire a popped slot: drop whichever action it held, bump the
   generation (stale handles die), push back onto the freelist. *)
let free_event t slot =
  if t.a_action1.(slot) != noop_action1 then t.a_action1.(slot) <- noop_action1
  else t.a_action.(slot) <- noop_action;
  t.a_gen.(slot) <- t.a_gen.(slot) + 1;
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1

let past t time =
  invalid_arg
    (Printf.sprintf "Sim.at: scheduling in the past (%s < %s)" (Time.to_string time)
       (Time.to_string t.clock))

(* Queue an armed slot at [time] and return its handle. *)
let enqueue t ~daemon time slot =
  queue_push t ~time ~seq:t.seq slot;
  t.seq <- t.seq + 1;
  if daemon then t.daemon_pending <- t.daemon_pending + 1;
  (t.a_gen.(slot) lsl slot_bits) lor slot

let schedule t ~daemon time f =
  if Time.(time < t.clock) then past t time;
  let slot = alloc_event t ~daemon in
  t.a_action.(slot) <- f;
  enqueue t ~daemon time slot

let at t time f = schedule t ~daemon:false time f
let at_daemon t time f = schedule t ~daemon:true time f

let after t delay f = at t (Time.add t.clock delay) f

let at1 t time k arg =
  if Time.(time < t.clock) then past t time;
  let slot = alloc_event t ~daemon:false in
  t.a_action1.(slot) <- k;
  t.a_arg.(slot) <- arg;
  enqueue t ~daemon:false time slot

let after1 t delay k arg = at1 t (Time.add t.clock delay) k arg

let cancel t id =
  let slot = id land slot_mask in
  (* A stale generation means the event already fired (or was popped
     after an earlier cancel) and the slot was recycled: no-op. *)
  if slot < Array.length t.a_gen && t.a_gen.(slot) = id lsr slot_bits
     && not t.a_cancelled.(slot) then begin
    t.a_cancelled.(slot) <- true;
    (* Blank the action so a cancelled timer does not pin its closure's
       environment (request payloads, connections) until the queue pops
       it — retry timers cancel on every successful completion, so the
       window between cancel and pop can hold thousands of dead events. *)
    t.a_action.(slot) <- noop_action;
    t.a_action1.(slot) <- noop_action1;
    if not t.a_daemon.(slot) then t.cancelled_pending <- t.cancelled_pending + 1
  end

(* True for events that were cancelled and also for events that already
   retired (fired, or popped after cancellation): a dead handle is never
   "live and uncancelled". *)
let cancelled t id =
  let slot = id land slot_mask in
  slot >= Array.length t.a_gen
  || t.a_gen.(slot) <> id lsr slot_bits
  || t.a_cancelled.(slot)

let run ?(until = Time.infinity) t =
  let executed_before = t.executed in
  let continue = ref true in
  while !continue do
    (* Stop once only daemon events remain: daemons (monitor ticks and
       the like) observe the simulation but never keep it alive, so
       [run] still terminates when the real workload drains.  Unexecuted
       daemons stay queued and resume if new work arrives later. *)
    if queue_length t <= t.daemon_pending then continue := false
    else
      (* Single queue traversal per event: pop only when the minimum is
         due, instead of the former peek-then-pop pair.  The pop returns
         the slot (or [-1]) and leaves the time in the queue, so an
         event costs no allocation here. *)
      let slot = queue_pop_if_le t ~until in
      if slot < 0 then continue := false
      else begin
        let time = queue_popped_time t in
        let daemon = t.a_daemon.(slot) in
        let was_cancelled = t.a_cancelled.(slot) in
        let action = t.a_action.(slot) in
        let action1 = t.a_action1.(slot) in
        let arg = t.a_arg.(slot) in
        free_event t slot;
        if daemon then t.daemon_pending <- t.daemon_pending - 1
        else if was_cancelled then t.cancelled_pending <- t.cancelled_pending - 1;
        (* A daemon left behind by an earlier [run] whose clock was forced
           forward to [until] can carry a stale timestamp; never move the
           clock backwards. *)
        if Time.(time > t.clock) then t.clock <- time;
        if not was_cancelled then begin
          t.executed <- t.executed + 1;
          if action1 == noop_action1 then action () else action1 arg
        end
      end
  done;
  (* The clock advances to [until] even if the queue drained earlier, so
     that rate computations based on [now] are well defined. *)
  if Time.(until < Time.infinity) && Time.(t.clock < until) then t.clock <- until;
  t.executed - executed_before

let events_executed t = t.executed
let pending t = queue_length t

(* Cancelled non-daemon events still occupy queue slots until their time
   comes, but they are dead weight: polling loops that wait for
   [live_pending = 0] must not spin on a pile of cancelled retry
   timers. *)
let live_pending t = queue_length t - t.daemon_pending - t.cancelled_pending

let every t ~every:period ~until f =
  if Time.(period <= Time.zero) then invalid_arg "Sim.every: non-positive period";
  let rec tick time =
    if Time.(time <= until) then
      ignore
        (at t time (fun () ->
             f time;
             let next = Time.add time period in
             (* Guard int wrap-around near Time.infinity (max_int): a
                wrapped [next] would be "in the past" and make [at]
                raise from inside the event loop. *)
             if Time.(next > time) then tick next))
  in
  let first = Time.add t.clock period in
  if Time.(first > t.clock) then tick first

let every_daemon t ~every:period f =
  if Time.(period <= Time.zero) then invalid_arg "Sim.every_daemon: non-positive period";
  let rec tick time =
    ignore
      (at_daemon t time (fun () ->
           (* After an idle gap the scheduled [time] may be stale (the
              clock was forced forward); report the actual clock. *)
           f t.clock;
           let next = Time.max (Time.add time period) t.clock in
           if Time.(next > time) then tick next))
  in
  let first = Time.add t.clock period in
  if Time.(first > t.clock) then tick first
