open Reflex_engine
open Reflex_telemetry

(* Per-direction ordering works the way TCP reassembly does: each message
   carries a sequence number; out-of-order arrivals (receive-side jitter
   can reorder raw deliveries) are buffered until the gap fills.

   Every message of a direction waits in one reassembly ring from [send]
   until it is delivered, at index [seq land mask]: the ring spans the
   window [next_deliver, send_seq), and [send] doubles it (cold [grow])
   when the window fills it.  The sequence number is the int argument of
   the two per-endpoint continuations ([on_tx] after the sender's stack
   delay, [on_arrive] at fabric delivery), so a message allocates
   nothing on its way through.  The ring starts empty, and a delivered
   slot is overwritten with a fixed filler (the endpoint's first
   message), so the ring never keeps a delivered message reachable. *)

type 'a endpoint = {
  mutable handler : ('a -> size:int -> unit) option;
  pending : ('a * int) Queue.t;
  mutable send_seq : int;
  mutable next_deliver : int;
  mutable msgs : 'a array;
  mutable sizes : int array;
  mutable arrived : Bytes.t; (* '\001': arrived, awaiting its turn *)
  mutable mask : int;
  mutable filler : 'a option;
  mutable delivered : int;
  mutable on_tx : int -> unit;
  mutable on_arrive : int -> unit;
}

type 'a t = {
  fabric : Fabric.t;
  client : Fabric.host;
  server : Fabric.host;
  to_server : 'a endpoint;
  to_client : 'a endpoint;
  (* World-level counters (shared by every connection of the world via
     the registry); untouched when telemetry is off. *)
  tel_on : bool;
  c_to_server : Telemetry.counter; (* net/to_server_msgs *)
  c_to_client : Telemetry.counter; (* net/to_client_msgs *)
  c_ooo : Telemetry.counter; (* net/ooo_buffered *)
  (* Cost profiler (lib/obs), cached off the telemetry instance; scopes
     the send path under the Net bucket.  Disabled by default. *)
  prof : Reflex_obs.Profiler.t;
}

let noop_k (_ : int) = ()

let make_endpoint () =
  {
    handler = None;
    pending = Queue.create ();
    send_seq = 0;
    next_deliver = 0;
    msgs = [||];
    sizes = [||];
    arrived = Bytes.empty;
    mask = -1;
    filler = None;
    delivered = 0;
    on_tx = noop_k;
    on_arrive = noop_k;
  }

(* Cold path: a message that arrives before its handler is installed. *)
let park ep msg size = Queue.add (msg, size) ep.pending

let deliver ep msg size =
  ep.delivered <- ep.delivered + 1;
  match ep.handler with Some h -> h msg ~size | None -> park ep msg size

let arrive t ep seq =
  (* Duplicate suppression: a fault-injected duplicate (or, in a real
     stack, a retransmitted segment racing its original) arrives with a
     sequence number already delivered; reassembly drops it. *)
  if seq >= ep.next_deliver then begin
    (* A gap means receive-side jitter reordered raw deliveries. *)
    if t.tel_on && seq <> ep.next_deliver then Telemetry.incr t.c_ooo;
    Bytes.unsafe_set ep.arrived (seq land ep.mask) '\001';
    (* A handler may send on this endpoint and grow the ring, so every
       pass re-reads the arrays. *)
    while Bytes.unsafe_get ep.arrived (ep.next_deliver land ep.mask) = '\001' do
      let i = ep.next_deliver land ep.mask in
      let msg = ep.msgs.(i) and size = ep.sizes.(i) in
      Bytes.unsafe_set ep.arrived i '\000';
      (match ep.filler with Some f -> ep.msgs.(i) <- f | None -> ());
      ep.next_deliver <- ep.next_deliver + 1;
      deliver ep msg size
    done
  end

let connect ?(telemetry = Telemetry.disabled) fabric ~client ~server =
  let t =
    {
      fabric;
      client;
      server;
      to_server = make_endpoint ();
      to_client = make_endpoint ();
      tel_on = Telemetry.enabled telemetry;
      c_to_server = Telemetry.counter telemetry "net/to_server_msgs";
      c_to_client = Telemetry.counter telemetry "net/to_client_msgs";
      c_ooo = Telemetry.counter telemetry "net/ooo_buffered";
      prof = Telemetry.profiler telemetry;
    }
  in
  let wire ep ~src ~dst =
    ep.on_arrive <- (fun seq -> arrive t ep seq);
    ep.on_tx <-
      (fun seq ->
        Fabric.transmit fabric ~src ~dst ~bytes:ep.sizes.(seq land ep.mask) ep.on_arrive seq)
  in
  wire t.to_server ~src:client ~dst:server;
  wire t.to_client ~src:server ~dst:client;
  t

let set_handler ep h =
  ep.handler <- Some h;
  Queue.iter (fun (msg, size) -> h msg ~size) ep.pending;
  Queue.clear ep.pending

let set_server_handler t h = set_handler t.to_server h
let set_client_handler t h = set_handler t.to_client h

(* Cold path: the window [next_deliver, send_seq) fills the ring (or the
   ring is still empty); double it and re-place each waiting message at
   its sequence number under the new mask.  [msg] is the message being
   sent; the first one becomes the endpoint's filler. *)
let grow ep msg =
  let filler = match ep.filler with Some f -> f | None -> msg in
  ep.filler <- Some filler;
  let cap = ep.mask + 1 in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let msgs = Array.make ncap filler in
  let sizes = Array.make ncap 0 in
  let arrived = Bytes.make ncap '\000' in
  for seq = ep.next_deliver to ep.send_seq - 1 do
    let i = seq land ep.mask and j = seq land (ncap - 1) in
    msgs.(j) <- ep.msgs.(i);
    sizes.(j) <- ep.sizes.(i);
    Bytes.set arrived j (Bytes.get ep.arrived i)
  done;
  ep.msgs <- msgs;
  ep.sizes <- sizes;
  ep.arrived <- arrived;
  ep.mask <- ncap - 1

let send t ~src ~ep ~size msg =
  Reflex_obs.Profiler.enter t.prof Reflex_obs.Profiler.Subsystem.Net;
  let sim = Fabric.sim t.fabric in
  let seq = ep.send_seq in
  if seq - ep.next_deliver > ep.mask then grow ep msg;
  let i = seq land ep.mask in
  ep.msgs.(i) <- msg;
  ep.sizes.(i) <- size;
  ep.send_seq <- seq + 1;
  let tx = Stack_model.tx_delay (Fabric.host_stack src) (Sim.prng sim) in
  ignore (Sim.after1 sim tx ep.on_tx seq);
  Reflex_obs.Profiler.leave t.prof Reflex_obs.Profiler.Subsystem.Net

let send_to_server t ~size msg =
  if t.tel_on then Telemetry.incr t.c_to_server;
  send t ~src:t.client ~ep:t.to_server ~size msg

let send_to_client t ~size msg =
  if t.tel_on then Telemetry.incr t.c_to_client;
  send t ~src:t.server ~ep:t.to_client ~size msg

let client_host t = t.client
let server_host t = t.server
let delivered_to_server t = t.to_server.delivered
let delivered_to_client t = t.to_client.delivered
