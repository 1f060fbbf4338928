open Reflex_engine
module Rack = Reflex_rack.Rack
module Policy = Reflex_rack.Policy
module Server = Reflex_core.Server
module Flight = Reflex_obs.Flight
module Hopsink = Reflex_obs.Hopsink
module Hdr = Reflex_stats.Hdr_histogram
module Table = Reflex_stats.Table
module Tsdb = Reflex_monitor.Tsdb
module Alerts = Reflex_monitor.Alerts

(* Rack-scale distributed tracing.

   A trace context is (rid, hop): [rid] is a rack-unique monotone request
   id minted at the balancing instant, [hop] indexes the five stamp
   points of a rack read —

     0 pick     the balancing decision (Rack tr_dispatch)
     1 issue    ingress-link charge elapsed, read leaves the client
     2 submit   NVMe submission on the chosen server (Dataplane hop sink)
     3 complete NVMe completion on the chosen server (Dataplane hop sink)
     4 reply    the response reaches the rack completion path

   The live context is a preallocated SoA slot table — tr_dispatch pops a
   slot off a freelist and every later stamp indexes arrays, so the armed
   hot path allocates nothing beyond the per-server correlation entry.
   Each stamp also writes a [Flight.Kind.Hop] record into the chosen
   server's flight ring (a=rid, b=(tenant lsl 3) lor hop, v=the hop's
   delta in us), and every pick writes a [Balance] record into the rack
   ring — the raw material for {!Rack_rollup}.

   Hop deltas tile the end-to-end latency exactly (the PR 2 discipline):
   pick = 0 by construction (the balancer is synchronous today; the
   column exists so an async/centralized scheduler has somewhere to put
   its decision latency), ingress = t1-t0, queue = t2-t1 (wire + rx +
   scheduler queueing on the server), service = t3-t2 (flash), egress =
   t4-t3 (tx + fabric return).  When the server-side stamps are missing
   (error replies that never reached the NVMe path) the queue component
   absorbs t4-t1 and service/egress are zero — the telescoping sum still
   equals t4-t0, so the tiling invariant is universal. *)

let n_components = 5

let component_name = function
  | 0 -> "pick"
  | 1 -> "ingress"
  | 2 -> "queue"
  | 3 -> "service"
  | 4 -> "egress"
  | _ -> "?"

let stamp_name = function
  | 0 -> "pick"
  | 1 -> "issue"
  | 2 -> "submit"
  | 3 -> "complete"
  | 4 -> "reply"
  | _ -> "?"

(* One of the K worst latency-critical requests, frozen at completion. *)
type exemplar = {
  ex_rid : int;
  ex_tenant : int;
  ex_server : int;
  ex_t0 : Time.t;
  ex_sampled : int;
  ex_bound : Time.t;
  ex_pick : Time.t;
  ex_ingress : Time.t;
  ex_queue : Time.t;
  ex_service : Time.t;
  ex_egress : Time.t;
  ex_e2e : Time.t;
}

type migration = { mg_time : Time.t; mg_tenant : int; mg_src : int; mg_dst : int }

type dump = {
  d_time : Time.t;
  d_rule : string;
  d_server_snaps : Flight.snapshot array;
  d_rack_snap : Flight.snapshot;
}

(* Flat open-addressing (tenant, req) -> slot correlation table: linear
   probing with backward-shift deletion, no allocation on put/find/remove
   (a Hashtbl here costs a bucket cons per insert and an option box per
   lookup, five such ops per traced request).  Keys are non-negative;
   [-1] marks an empty cell.  Sized at 2x the slot capacity so the load
   factor stays below 1/2 even with every slot in flight on one server. *)
type corr = { c_mask : int; c_keys : int array; c_slots : int array }

let corr_hash key mask = (key * 0x9E37_79B1) lsr 8 land mask

let corr_create cap =
  let size = ref 16 in
  while !size < 2 * cap do size := !size * 2 done;
  { c_mask = !size - 1; c_keys = Array.make !size (-1); c_slots = Array.make !size 0 }

(* The probe loops live at toplevel (parameters threaded explicitly, no
   environment capture) so the per-request trace path allocates nothing:
   a local [let rec] inside the function would build a closure on every
   call. *)
let rec corr_put_from keys slots mask key slot i =
  let k = keys.(i) in
  if k = -1 || k = key then begin
    keys.(i) <- key;
    slots.(i) <- slot
  end
  else corr_put_from keys slots mask key slot ((i + 1) land mask)

let corr_put c key slot =
  corr_put_from c.c_keys c.c_slots c.c_mask key slot (corr_hash key c.c_mask)

let rec corr_find_from keys slots mask key i =
  let k = keys.(i) in
  if k = key then slots.(i) else if k = -1 then -1 else corr_find_from keys slots mask key ((i + 1) land mask)

(* [-1] when absent. *)
let corr_find c key = corr_find_from c.c_keys c.c_slots c.c_mask key (corr_hash key c.c_mask)

let rec corr_index_of keys mask key i =
  let k = keys.(i) in
  if k = key then i else if k = -1 then -1 else corr_index_of keys mask key ((i + 1) land mask)

(* Backward-shift deletion: pull every displaced successor over the hole
   so probe chains never need tombstones. *)
let rec corr_shift keys slots mask hole j =
  let k = keys.(j) in
  if k = -1 then keys.(hole) <- -1
  else begin
    let ideal = corr_hash k mask in
    if (j - ideal) land mask >= (j - hole) land mask then begin
      keys.(hole) <- k;
      slots.(hole) <- slots.(j);
      corr_shift keys slots mask j ((j + 1) land mask)
    end
    else corr_shift keys slots mask hole ((j + 1) land mask)
  end

let corr_remove c key =
  let mask = c.c_mask in
  let i = corr_index_of c.c_keys mask key (corr_hash key mask) in
  if i >= 0 then corr_shift c.c_keys c.c_slots mask i ((i + 1) land mask)

type t = {
  sim : Sim.t;
  rack : Rack.t;
  n_servers : int;
  policy_index : int;
  k_exemplars : int;
  (* live trace contexts: SoA slot table + freelist *)
  cap : int;
  sl_rid : int array;
  sl_tenant : int array;
  sl_server : int array;
  sl_key : int array;
  sl_sampled : int array;
  sl_bound : Time.t array;
  sl_t0 : Time.t array;
  sl_t1 : Time.t array;
  sl_t2 : Time.t array;
  sl_t3 : Time.t array;
  sl_stamps : int array;  (* bitmask over stamp points 0..3 *)
  free : int array;
  mutable n_free : int;
  mutable next_rid : int;
  (* per-server (tenant, req) -> slot correlation for the hop sink *)
  pending : corr array;
  (* flight rings: one per server lane plus the rack lane *)
  rings : Flight.t array;
  rack_ring : Flight.t;
  (* per-hop attribution, latency-critical completions only *)
  h_comp : Hdr.t array;  (* indexed by component *)
  h_e2e : Hdr.t;
  viol : int array;  (* SLO violations whose dominant component is [i] *)
  mutable viol_total : int;
  (* tiling proof counters *)
  mutable traced : int;
  mutable untiled : int;  (* completions whose deltas did NOT tile e2e *)
  mutable fallbacks : int;  (* completions missing the server-side stamps *)
  mutable slot_overflow : int;  (* dispatches declined: slot table full *)
  mutable lc_traced : int;
  (* tail exemplars, sorted worst-first (desc e2e, asc rid on ties) *)
  mutable exemplars : exemplar list;
  mutable n_exemplars : int;
  mutable ex_floor : Time.t;  (* e2e of the current K-th worst, once full *)
  (* migration log (cold), newest first *)
  mutable migs : migration list;
  (* cumulative charged ingress-link busy time per server port, us *)
  link_busy_us : float array;
  (* alert-edge forensic dump (first Fired edge wins) *)
  mutable dump : dump option;
}

let corr_key ~tenant ~req = (tenant * 0x1_000_000) + (req land 0xFF_FFFF)

(* ---------------- hot stamp points ---------------- *)

let on_dispatch t ~tenant ~server ~sampled ~slo_bound ~now =
  if t.n_free = 0 then begin
    t.slot_overflow <- t.slot_overflow + 1;
    -1
  end
  else begin
    t.n_free <- t.n_free - 1;
    let slot = t.free.(t.n_free) in
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    t.sl_rid.(slot) <- rid;
    t.sl_tenant.(slot) <- tenant;
    t.sl_server.(slot) <- server;
    t.sl_key.(slot) <- -1;
    t.sl_sampled.(slot) <- sampled;
    t.sl_bound.(slot) <- slo_bound;
    t.sl_t0.(slot) <- now;
    t.sl_stamps.(slot) <- 1;
    Flight.record t.rings.(server) ~now ~kind:Flight.Kind.Hop ~a:rid
      ~b:((tenant lsl 3) lor 0)
      ~v:(float_of_int sampled);
    Flight.record t.rack_ring ~now ~kind:Flight.Kind.Balance ~a:server ~b:t.policy_index
      ~v:(float_of_int sampled);
    slot
  end

let on_issue t ~slot ~server ~tenant ~req ~now =
  let d = Time.diff now t.sl_t0.(slot) in
  t.sl_t1.(slot) <- now;
  t.sl_stamps.(slot) <- t.sl_stamps.(slot) lor 2;
  let key = corr_key ~tenant ~req in
  t.sl_key.(slot) <- key;
  corr_put t.pending.(server) key slot;
  t.link_busy_us.(server) <- t.link_busy_us.(server) +. Time.to_float_us d;
  Flight.record t.rings.(server) ~now ~kind:Flight.Kind.Hop ~a:t.sl_rid.(slot)
    ~b:((tenant lsl 3) lor 1)
    ~v:(Time.to_float_us d)

(* Server-side stamps arrive through the per-server [Hopsink]; lookups
   that miss are foreign traffic (requests the rack did not dispatch, or
   slots the table declined) and are ignored. *)
let on_server_stamp t server ~tenant ~req ~hop ~now =
  let key = corr_key ~tenant ~req in
  let slot = corr_find t.pending.(server) key in
  if slot >= 0 then begin
    if hop = 2 then begin
      let d = Time.diff now t.sl_t1.(slot) in
      t.sl_t2.(slot) <- now;
      t.sl_stamps.(slot) <- t.sl_stamps.(slot) lor 4;
      Flight.record t.rings.(server) ~now ~kind:Flight.Kind.Hop ~a:t.sl_rid.(slot)
        ~b:((tenant lsl 3) lor 2)
        ~v:(Time.to_float_us d)
    end
    else if hop = 3 then begin
      let d = Time.diff now t.sl_t2.(slot) in
      t.sl_t3.(slot) <- now;
      t.sl_stamps.(slot) <- t.sl_stamps.(slot) lor 8;
      (* The NVMe path is done with this request: retire the correlation
         entry now so the table tracks only in-flight commands. *)
      corr_remove t.pending.(server) key;
      t.sl_key.(slot) <- -1;
      Flight.record t.rings.(server) ~now ~kind:Flight.Kind.Hop ~a:t.sl_rid.(slot)
        ~b:((tenant lsl 3) lor 3)
        ~v:(Time.to_float_us d)
    end
  end

(* Cold: admit a completed LC request into the worst-K exemplar set.
   Strictly-greater e2e replaces; on equal e2e the earlier rid stays. *)
let consider_exemplar t ~slot ~pick ~ingress ~queue ~service ~egress ~e2e =
  let ex =
    {
      ex_rid = t.sl_rid.(slot);
      ex_tenant = t.sl_tenant.(slot);
      ex_server = t.sl_server.(slot);
      ex_t0 = t.sl_t0.(slot);
      ex_sampled = t.sl_sampled.(slot);
      ex_bound = t.sl_bound.(slot);
      ex_pick = pick;
      ex_ingress = ingress;
      ex_queue = queue;
      ex_service = service;
      ex_egress = egress;
      ex_e2e = e2e;
    }
  in
  let rec insert = function
    | [] -> [ ex ]
    | x :: rest ->
      if Time.(ex.ex_e2e > x.ex_e2e) then ex :: x :: rest else x :: insert rest
  in
  let xs = insert t.exemplars in
  let xs =
    if List.length xs > t.k_exemplars then List.filteri (fun i _ -> i < t.k_exemplars) xs
    else xs
  in
  t.exemplars <- xs;
  t.n_exemplars <- List.length xs;
  (match List.rev xs with
  | last :: _ when t.n_exemplars = t.k_exemplars -> t.ex_floor <- last.ex_e2e
  | _ -> ())

let on_complete t ~slot ~ok ~now =
  ignore ok;
  let server = t.sl_server.(slot) in
  let tenant = t.sl_tenant.(slot) in
  let stamps = t.sl_stamps.(slot) in
  let t0 = t.sl_t0.(slot) in
  let e2e = Time.diff now t0 in
  Flight.record t.rings.(server) ~now ~kind:Flight.Kind.Hop ~a:t.sl_rid.(slot)
    ~b:((tenant lsl 3) lor 4)
    ~v:(Time.to_float_us e2e);
  (* Error paths can complete without ever reaching the NVMe submit; the
     correlation entry may still be live. *)
  if t.sl_key.(slot) >= 0 then corr_remove t.pending.(server) t.sl_key.(slot);
  let pick = Time.zero in
  let ingress = if stamps land 2 <> 0 then Time.diff t.sl_t1.(slot) t0 else Time.zero in
  let base = if stamps land 2 <> 0 then t.sl_t1.(slot) else t0 in
  let full = stamps land 12 = 12 in
  let queue = if full then Time.diff t.sl_t2.(slot) base else Time.diff now base in
  let service = if full then Time.diff t.sl_t3.(slot) t.sl_t2.(slot) else Time.zero in
  let egress = if full then Time.diff now t.sl_t3.(slot) else Time.zero in
  if not full then t.fallbacks <- t.fallbacks + 1;
  let sum = Time.add pick (Time.add ingress (Time.add queue (Time.add service egress))) in
  if not (Time.equal sum e2e) then t.untiled <- t.untiled + 1;
  t.traced <- t.traced + 1;
  let bound = t.sl_bound.(slot) in
  if Time.(bound > Time.zero) then begin
    t.lc_traced <- t.lc_traced + 1;
    Hdr.record t.h_comp.(0) (pick :> int);
    Hdr.record t.h_comp.(1) (ingress :> int);
    Hdr.record t.h_comp.(2) (queue :> int);
    Hdr.record t.h_comp.(3) (service :> int);
    Hdr.record t.h_comp.(4) (egress :> int);
    Hdr.record t.h_e2e (e2e :> int);
    if Time.(e2e > bound) then begin
      t.viol_total <- t.viol_total + 1;
      (* dominant component, ties toward the earlier hop *)
      let dom = ref 0 and best = ref pick in
      if Time.(ingress > !best) then begin dom := 1; best := ingress end;
      if Time.(queue > !best) then begin dom := 2; best := queue end;
      if Time.(service > !best) then begin dom := 3; best := service end;
      if Time.(egress > !best) then begin dom := 4; best := egress end;
      t.viol.(!dom) <- t.viol.(!dom) + 1
    end;
    if t.n_exemplars < t.k_exemplars || Time.(e2e > t.ex_floor) then
      consider_exemplar t ~slot ~pick ~ingress ~queue ~service ~egress ~e2e
  end;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1

let on_migrate t ~tenant ~src ~dst ~now =
  t.migs <- { mg_time = now; mg_tenant = tenant; mg_src = src; mg_dst = dst } :: t.migs;
  Flight.record t.rack_ring ~now ~kind:Flight.Kind.Migrate ~a:tenant ~b:dst
    ~v:(float_of_int src)

(* ---------------- creation / arming ---------------- *)

let create ?(capacity = 4096) ?(ring_capacity = 1 lsl 14) ?(exemplars = 4) rack =
  if capacity < 1 then invalid_arg "Rack_obs.create: capacity < 1";
  if exemplars < 1 then invalid_arg "Rack_obs.create: exemplars < 1";
  let n = Rack.n_servers rack in
  let t =
    {
      sim = Rack.sim rack;
      rack;
      n_servers = n;
      policy_index = Policy.kind_index (Rack.policy_kind rack);
      k_exemplars = exemplars;
      cap = capacity;
      sl_rid = Array.make capacity 0;
      sl_tenant = Array.make capacity 0;
      sl_server = Array.make capacity 0;
      sl_key = Array.make capacity (-1);
      sl_sampled = Array.make capacity 0;
      sl_bound = Array.make capacity Time.zero;
      sl_t0 = Array.make capacity Time.zero;
      sl_t1 = Array.make capacity Time.zero;
      sl_t2 = Array.make capacity Time.zero;
      sl_t3 = Array.make capacity Time.zero;
      sl_stamps = Array.make capacity 0;
      free = Array.init capacity (fun i -> i);
      n_free = capacity;
      next_rid = 0;
      pending = Array.init n (fun _ -> corr_create capacity);
      rings = Array.init n (fun _ -> Flight.create ~capacity:ring_capacity ());
      rack_ring = Flight.create ~capacity:ring_capacity ();
      h_comp = Array.init n_components (fun _ -> Hdr.create ());
      h_e2e = Hdr.create ();
      viol = Array.make n_components 0;
      viol_total = 0;
      traced = 0;
      untiled = 0;
      fallbacks = 0;
      slot_overflow = 0;
      lc_traced = 0;
      exemplars = [];
      n_exemplars = 0;
      ex_floor = Time.zero;
      migs = [];
      link_busy_us = Array.make n 0.0;
      dump = None;
    }
  in
  for i = 0 to n - 1 do
    Server.set_hopsink (Rack.server rack i)
      (Hopsink.make (fun ~tenant ~req ~hop ~now -> on_server_stamp t i ~tenant ~req ~hop ~now))
  done;
  Rack.set_tracer rack
    {
      Rack.tr_dispatch =
        (fun ~tenant ~server ~sampled ~slo_bound ~now ->
          on_dispatch t ~tenant ~server ~sampled ~slo_bound ~now);
      tr_issue =
        (fun ~slot ~server ~tenant ~req ~now -> on_issue t ~slot ~server ~tenant ~req ~now);
      tr_complete = (fun ~slot ~ok ~now -> on_complete t ~slot ~ok ~now);
      tr_migrate = (fun ~tenant ~src ~dst ~now -> on_migrate t ~tenant ~src ~dst ~now);
    };
  t

(* ---------------- accessors ---------------- *)

let traced t = t.traced
let untiled t = t.untiled
let fallbacks t = t.fallbacks
let slot_overflow t = t.slot_overflow
let lc_traced t = t.lc_traced
let violations t = Array.copy t.viol
let violation_total t = t.viol_total
let component_hist t i = t.h_comp.(i)
let e2e_hist t = t.h_e2e
let exemplars t = t.exemplars
let migrations t = List.rev t.migs
let server_ring t i = t.rings.(i)
let rack_ring t = t.rack_ring
let link_busy_us t = Array.copy t.link_busy_us

let tiling_ok t = t.traced > 0 && t.untiled = 0

(* Bench probe: the cost of one hop record on a server ring — the exact
   write the armed trace path performs per stamp. *)
let bench_hop_records t n =
  let ring = t.rings.(0) in
  let now = Sim.now t.sim in
  for i = 1 to n do
    Flight.record ring ~now ~kind:Flight.Kind.Hop ~a:i ~b:((i land 0xFF) lsl 3) ~v:1.0
  done

(* ---------------- snapshots ---------------- *)

let snapshot_servers t ~now ~window =
  Array.init t.n_servers (fun i -> Flight.snapshot t.rings.(i) ~now ~window)

let snapshot_rack t ~now ~window = Flight.snapshot t.rack_ring ~now ~window

(* ---------------- monitor wiring ---------------- *)

let burn_rule_name = "rack/slo_burn"

let wire_monitor t ~tsdb ~alerts ?(target = 0.95) () =
  Tsdb.register_cumulative tsdb "rack/slo_good" (fun () ->
      float_of_int (Rack.slo_ok t.rack));
  Tsdb.register_cumulative tsdb "rack/slo_bad" (fun () ->
      float_of_int (Rack.slo_total t.rack - Rack.slo_ok t.rack));
  Tsdb.register_hist tsdb "rack/e2e" t.h_e2e;
  Tsdb.register_gauge tsdb "rack/imbalance" (fun () ->
      (* max-over-mean of the fresh in-flight counts; 1.0 when idle *)
      let inflight = Rack.exact_inflight t.rack in
      let total = ref 0 and hot = ref 0 in
      Array.iter
        (fun d ->
          total := !total + d;
          if d > !hot then hot := d)
        inflight;
      if !total = 0 then 1.0
      else float_of_int !hot *. float_of_int (Array.length inflight) /. float_of_int !total);
  for i = 0 to t.n_servers - 1 do
    Tsdb.register_cumulative tsdb
      (Printf.sprintf "rack/link/s%02d/busy_us" i)
      (fun () -> t.link_busy_us.(i))
  done;
  Alerts.add alerts
    (Alerts.burn_rule ~severity:Alerts.Page ~name:burn_rule_name ~target
       ~good:"rack/slo_good" ~bad:"rack/slo_bad" ~short:(1, 8.0) ~long:(3, 4.0) ())

let start_monitor t ~tsdb ~alerts ?(every = Time.ms 1) ?(dump_window = Time.ms 4) ~until () =
  Sim.every t.sim ~every ~until (fun _ ->
      let now = Sim.now t.sim in
      Tsdb.tick tsdb ~now;
      let events = Alerts.step alerts tsdb ~now in
      if t.dump = None then
        List.iter
          (fun (e : Alerts.event) ->
            if e.Alerts.e_kind = Alerts.Fired && t.dump = None then
              t.dump <-
                Some
                  {
                    d_time = now;
                    d_rule = e.Alerts.e_rule;
                    d_server_snaps = snapshot_servers t ~now ~window:dump_window;
                    d_rack_snap = snapshot_rack t ~now ~window:dump_window;
                  })
          events)

let dump t = t.dump

(* ---------------- rendering ---------------- *)

let us time = Time.to_float_us time

let attribution t =
  let buf = Buffer.create 1024 in
  let tb =
    Table.create ~title:"Per-hop latency attribution (LC completions)"
      ~columns:[ "hop"; "count"; "mean us"; "p95 us"; "p99 us"; "share %" ]
  in
  let mean_sum = ref 0.0 in
  Array.iter (fun h -> mean_sum := !mean_sum +. Hdr.mean_us h) t.h_comp;
  Array.iteri
    (fun i h ->
      Table.add_row tb
        [
          component_name i;
          Table.cell_i (Hdr.count h);
          Table.cell_f ~decimals:1 (Hdr.mean_us h);
          Table.cell_f ~decimals:1 (Hdr.percentile_us h 95.0);
          Table.cell_f ~decimals:1 (Hdr.percentile_us h 99.0);
          Table.cell_f ~decimals:1
            (if !mean_sum <= 0.0 then 0.0 else 100.0 *. Hdr.mean_us h /. !mean_sum);
        ])
    t.h_comp;
  Buffer.add_string buf (Table.render tb);
  Printf.bprintf buf
    "  e2e: %d LC requests traced, mean %.1f us, p99 %.1f us; tiling %s (%d/%d exact, %d stamp fallbacks)\n"
    (Hdr.count t.h_e2e) (Hdr.mean_us t.h_e2e)
    (Hdr.percentile_us t.h_e2e 99.0)
    (if t.untiled = 0 then "EXACT" else "BROKEN")
    (t.traced - t.untiled) t.traced t.fallbacks;
  if t.viol_total = 0 then Buffer.add_string buf "  SLO violations: none\n"
  else begin
    Printf.bprintf buf "  SLO violations: %d, dominant hop:" t.viol_total;
    Array.iteri
      (fun i n ->
        if n > 0 then
          Printf.bprintf buf " %s %d (%.0f%%)" (component_name i) n
            (100.0 *. float_of_int n /. float_of_int t.viol_total))
      t.viol;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

(* The latest migration of [tenant] at or before [time], if any. *)
let follows_from t ~tenant ~time =
  List.find_opt
    (fun m -> m.mg_tenant = tenant && Time.(m.mg_time <= time))
    t.migs (* newest first: the first match is the latest *)

let render_exemplars t =
  let buf = Buffer.create 1024 in
  if t.exemplars = [] then Buffer.add_string buf "  tail exemplars: none (no LC traffic traced)\n"
  else begin
    Printf.bprintf buf "  Tail exemplars (worst %d of %d LC requests):\n"
      (List.length t.exemplars) t.lc_traced;
    List.iteri
      (fun i ex ->
        Printf.bprintf buf
          "    #%d rid=%d tenant=%d -> %s  e2e=%.1f us (bound %.1f, sampled depth %d)\n"
          (i + 1) ex.ex_rid ex.ex_tenant (Rack.server_name ex.ex_server) (us ex.ex_e2e)
          (us ex.ex_bound) ex.ex_sampled;
        (match follows_from t ~tenant:ex.ex_tenant ~time:ex.ex_t0 with
        | Some m ->
          Printf.bprintf buf "       follows_from migrate %s -> %s @ %.1f us\n"
            (Rack.server_name m.mg_src) (Rack.server_name m.mg_dst) (us m.mg_time)
        | None -> ());
        Printf.bprintf buf
          "       pick +%.1f | ingress +%.1f | queue +%.1f | service +%.1f | egress +%.1f us\n"
          (us ex.ex_pick) (us ex.ex_ingress) (us ex.ex_queue) (us ex.ex_service)
          (us ex.ex_egress))
      t.exemplars
  end;
  Buffer.contents buf
