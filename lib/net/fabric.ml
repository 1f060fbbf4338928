open Reflex_engine

type host = {
  name : string;
  stack : Stack_model.t;
  tx_link : Resource.t;
  rx_link : Resource.t;
  prng : Prng.t;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
}

(* A message in flight lives in one slot of the fabric's arena, in
   structure-of-arrays layout, from [transmit] until its delivery is
   scheduled.  The slot index is the int argument of the three stage
   continuations (made once per fabric), so a transmission allocates
   nothing in steady state.  The arena starts empty and doubles in the
   cold [grow]; a freed slot's continuation is overwritten with a fixed
   filler, so the arena keeps no delivered message's receiver
   reachable. *)
type arena = {
  mutable src : host array;
  mutable dst : host array;
  mutable bytes : int array;
  mutable ser : Time.t array;
  mutable dup : bool array;
  mutable k : (int -> unit) array; (* delivery continuation ... *)
  mutable arg : int array; (* ... and its argument *)
  mutable free : int array; (* freelist stack of unused slots *)
  mutable free_len : int;
}

type t = {
  sim : Sim.t;
  ns_per_byte : float;
  switch_latency : Time.t;
  nic_latency : Time.t;
  wire : Time.t; (* NIC -> switch -> NIC propagation *)
  msgs : arena;
  (* stage continuations over an arena slot, made once in [create] *)
  mutable start_tx : int -> unit; (* after a flap/loss stall *)
  mutable tx_done : int -> unit;
  mutable propagated : int -> unit;
  mutable rx_done : int -> unit;
  (* ---- fault-injection state (lib/faults) ----
     [faulty] is the single guard [transmit] reads; while false (the
     default) the pre-fault code path runs unchanged and no extra PRNG
     draws happen, keeping fault-free builds byte-identical.  The fault
     PRNG is owned by the injector (passed in via [set_fault_prng]), so
     arming faults never perturbs the simulation's root PRNG streams. *)
  mutable faulty : bool;
  mutable fault_prng : Prng.t option;
  mutable link_down_until : Time.t; (* flap: transmissions stall until then *)
  mutable loss_prob : float; (* per-message retransmission probability *)
  mutable dup_prob : float; (* per-message duplicate-delivery probability *)
  mutable rto : Time.t; (* retransmission delay charged per loss *)
  mutable losses : int;
  mutable dups : int;
  mutable flap_stalls : int;
  mutable dup_drawn : bool; (* [fault_penalties]' duplicate draw *)
}

let noop_k (_ : int) = ()

(* The transmission stages, each a continuation over an arena slot:
   serialization on the source tx link, propagation, serialization on
   the destination rx link, then the destination stack's receive delay
   (coalescing, wakeups) before the delivery continuation runs. *)
let start_tx t slot =
  let m = t.msgs in
  Resource.submit m.src.(slot).tx_link ~service:m.ser.(slot) t.tx_done slot

let tx_done t slot = ignore (Sim.after1 t.sim t.wire t.propagated slot)

let propagated t slot =
  let m = t.msgs in
  Resource.submit m.dst.(slot).rx_link ~service:m.ser.(slot) t.rx_done slot

(* Delivery is scheduled and the slot freed. *)
let rx_done t slot =
  let m = t.msgs in
  let dst = m.dst.(slot) in
  dst.rx_bytes <- dst.rx_bytes + m.bytes.(slot);
  let stack_delay = Stack_model.rx_delay dst.stack dst.prng in
  let k = m.k.(slot) and arg = m.arg.(slot) in
  ignore (Sim.after1 t.sim stack_delay k arg);
  if m.dup.(slot) then
    (* The duplicate pops out one extra stack delay later: same payload,
       same continuation; dedup is the receiver's job (see
       Tcp_conn.arrive). *)
    ignore (Sim.after1 t.sim (Time.add stack_delay t.nic_latency) k arg);
  m.k.(slot) <- noop_k;
  m.free.(m.free_len) <- slot;
  m.free_len <- m.free_len + 1

let create sim ?(bandwidth_gbps = 10.0) ?(switch_latency = Time.of_float_us 1.2)
    ?(nic_latency = Time.of_float_us 0.7) () =
  if bandwidth_gbps <= 0.0 then invalid_arg "Fabric.create: bandwidth";
  let t =
  {
    sim;
    ns_per_byte = 8.0 /. bandwidth_gbps;
    switch_latency;
    nic_latency;
    wire = Time.add switch_latency (Time.scale nic_latency 2.0);
    msgs =
      {
        src = [||];
        dst = [||];
        bytes = [||];
        ser = [||];
        dup = [||];
        k = [||];
        arg = [||];
        free = [||];
        free_len = 0;
      };
    start_tx = noop_k;
    tx_done = noop_k;
    propagated = noop_k;
    rx_done = noop_k;
    faulty = false;
    fault_prng = None;
    link_down_until = Time.zero;
    loss_prob = 0.0;
    dup_prob = 0.0;
    rto = Time.ms 1;
    losses = 0;
    dups = 0;
    flap_stalls = 0;
    dup_drawn = false;
  }
  in
  t.start_tx <- start_tx t;
  t.tx_done <- tx_done t;
  t.propagated <- propagated t;
  t.rx_done <- rx_done t;
  t

let sim t = t.sim

let add_host t ~name ~stack =
  {
    name;
    stack;
    tx_link = Resource.create t.sim;
    rx_link = Resource.create t.sim;
    prng = Prng.split (Sim.prng t.sim);
    tx_bytes = 0;
    rx_bytes = 0;
  }

let host_name h = h.name
let host_stack h = h.stack

(* [Time.of_float_ns], inlined: under [-opaque] the float argument of a
   call into another module is boxed, once per message. *)
let serialization_time t ~bytes =
  Time.ns (int_of_float (Float.round (float_of_int bytes *. t.ns_per_byte)))

(* Fault penalties charged to one transmission, computed before the tx
   link is occupied.  A link flap stalls the message until the link is
   back; a "lost" message is charged one retransmission timeout (TCP
   retransmits — the stream never actually loses a segment, it just
   arrives an RTO later); a duplicated message is delivered twice (the
   receiver's reassembly layer suppresses the copy).  Returns the stall
   and leaves the duplicate draw in [t.dup_drawn]. *)
let fault_penalties t =
  match t.fault_prng with
  | None ->
    t.dup_drawn <- false;
    Time.zero
  | Some prng ->
    let now = Sim.now t.sim in
    let stall =
      if Time.(now < t.link_down_until) then begin
        t.flap_stalls <- t.flap_stalls + 1;
        Time.diff t.link_down_until now
      end
      else Time.zero
    in
    let stall =
      if t.loss_prob > 0.0 && Prng.bool prng t.loss_prob then begin
        t.losses <- t.losses + 1;
        Time.add stall t.rto
      end
      else stall
    in
    let dup = t.dup_prob > 0.0 && Prng.bool prng t.dup_prob in
    if dup then t.dups <- t.dups + 1;
    t.dup_drawn <- dup;
    stall

(* Cold path: double the arena ([h] fills the fresh host slots). *)
let grow m h =
  let cap = Array.length m.bytes in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  m.src <- extend m.src h;
  m.dst <- extend m.dst h;
  m.bytes <- extend m.bytes 0;
  m.ser <- extend m.ser Time.zero;
  m.dup <- extend m.dup false;
  m.k <- extend m.k noop_k;
  m.arg <- extend m.arg 0;
  let free = Array.make ncap 0 in
  Array.blit m.free 0 free 0 m.free_len;
  m.free <- free;
  for slot = ncap - 1 downto cap do
    m.free.(m.free_len) <- slot;
    m.free_len <- m.free_len + 1
  done

let transmit t ~src ~dst ~bytes k arg =
  if bytes <= 0 then invalid_arg "Fabric.transmit: non-positive size";
  src.tx_bytes <- src.tx_bytes + bytes;
  let ser = serialization_time t ~bytes in
  let m = t.msgs in
  if m.free_len = 0 then grow m src;
  m.free_len <- m.free_len - 1;
  let slot = m.free.(m.free_len) in
  m.src.(slot) <- src;
  m.dst.(slot) <- dst;
  m.bytes.(slot) <- bytes;
  m.ser.(slot) <- ser;
  m.k.(slot) <- k;
  m.arg.(slot) <- arg;
  if t.faulty then begin
    let stall = fault_penalties t in
    m.dup.(slot) <- t.dup_drawn;
    if Time.(stall > Time.zero) then ignore (Sim.after1 t.sim stall t.start_tx slot)
    else start_tx t slot
  end
  else begin
    m.dup.(slot) <- false;
    start_tx t slot
  end

let bytes_sent h = h.tx_bytes
let bytes_received h = h.rx_bytes

(* ---- Fault-injection API (driven by Reflex_faults.Injector) ---------- *)

let set_fault_prng t prng =
  t.fault_prng <- Some prng;
  t.faulty <- true

let set_link_down_until t ~until = t.link_down_until <- until

let check_prob name p =
  if p < 0.0 || p >= 1.0 then invalid_arg (Printf.sprintf "Fabric.%s: probability" name)

let set_loss t ~prob ~rto =
  check_prob "set_loss" prob;
  if Time.(rto <= Time.zero) && prob > 0.0 then invalid_arg "Fabric.set_loss: rto";
  t.loss_prob <- prob;
  t.rto <- (if Time.(rto > Time.zero) then rto else t.rto)

let set_dup t ~prob =
  check_prob "set_dup" prob;
  t.dup_prob <- prob

let losses t = t.losses
let duplicates t = t.dups
let flap_stalls t = t.flap_stalls
