open Reflex_engine
open Reflex_flash
open Reflex_qos
open Reflex_telemetry

type 'a done_req = { payload : 'a; kind : Io_op.kind; nvme_latency : Time.t }

type 'a pending = { p_payload : 'a; p_kind : Io_op.kind; p_bytes : int; p_tenant : int }

(* All-float record: the per-submission [+.] stores in place, where a
   float field of [t] would box every sum. *)
type spent = { mutable tokens_spent : float }

type 'a t = {
  sim : Sim.t;
  thread_id : int;
  core : Resource.t;
  qp : Queue_pair.t;
  device : Nvme_model.t;
  cost_model : Cost_model.t;
  scheduler : 'a pending Scheduler.t;
  costs : Costs.t;
  respond : 'a done_req -> unit;
  reroute : tenant_id:int -> kind:Io_op.kind -> bytes:int -> 'a -> unit;
  rx_ring : 'a pending Queue.t;
  (* In-flight NVMe commands by cookie: a cookie is a slot of this
     array, taken off [free_cookies] at submission and returned at reap,
     so the array grows (in the cold [grow_outstanding]) only to the
     largest number of commands submitted and not yet reaped — the SQ
     depth plus the completions waiting in the CQ.  A reaped slot is
     overwritten with a fixed filler (the thread's first request). *)
  mutable outstanding : 'a pending array;
  mutable free_cookies : int array;
  mutable free_len : int;
  mutable n_outstanding : int;
  mutable filler : 'a pending option;
  deferred : 'a pending Scheduler.submission Queue.t; (* SQ-full retries *)
  mutable conns : int;
  mutable running : bool; (* a cycle is executing or queued on the core *)
  mutable idle_timer : Sim.event_id option;
  created_at : Time.t;
  mutable completed : int;
  spent : spent;
  mutable rounds : int;
  (* Observability.  [tel_on] copies the telemetry instance's immutable
     enabled bit: with telemetry off every span site below costs exactly
     one boolean test and allocates nothing, preserving the
     allocation-free hot cycle.  [trace_id] projects the opaque payload
     to the request id used for span identity. *)
  tel : Telemetry.t;
  tel_on : bool;
  (* Always-on flight recorder, cached off the telemetry instance at
     creation; one queue-depth record per cycle frames every forensic
     dump with what the rx ring and SQ looked like. *)
  fl : Reflex_obs.Flight.t;
  fl_on : bool;
  trace_id : 'a -> int;
  (* Rack-trace hop sink: stamps the NVMe submit/complete instants for a
     (tenant, request) so a rack-level tracer can attribute server-queue
     vs flash-service time.  [hops_on] mirrors the sink's bool so the
     disarmed cost is one test per site, like [tel_on]/[fl_on]. *)
  mutable hops : Reflex_obs.Hopsink.t;
  mutable hops_on : bool;
  (* The cycle's steps as continuations, made once in [create]; each
     takes the batch size it was charged for. *)
  mutable step1 : int -> unit; (* parse the batch, schedule, submit *)
  mutable step1_done : int -> unit; (* submission CPU charged *)
  mutable step2 : int -> unit; (* reap the batch, respond *)
  mutable submit_k : 'a pending Scheduler.submission -> unit; (* scheduler's submit *)
  mutable reap_k : cookie:int -> kind:Io_op.kind -> latency:Time.t -> unit;
  mutable idle_k : unit -> unit; (* idle re-arm timer *)
  mutable submissions : int; (* NVMe submissions this cycle *)
}

let thread_id t = t.thread_id

let add_tenant t ~id ~slo ~token_rate =
  Scheduler.add_tenant t.scheduler (Tenant.create ~id ~slo ~token_rate)

let remove_tenant t ~id = Scheduler.remove_tenant t.scheduler id

let set_token_rate t ~id rate =
  match Scheduler.find_tenant t.scheduler id with
  | Some tenant -> Tenant.set_token_rate tenant rate
  | None -> raise Not_found

let has_tenant t ~id = Scheduler.has_tenant t.scheduler id
let tenant_count t = Scheduler.tenant_count t.scheduler

let charge t base = Time.scale base (Costs.conn_factor t.costs ~conns:t.conns)

(* The thread wakes and runs one two-step cycle whenever there is work:
   receive-ring entries, completions, or schedulable tenant backlog. *)
let rec kick t =
  if not t.running then begin
    (match t.idle_timer with
    | Some ev ->
      Sim.cancel t.sim ev;
      t.idle_timer <- None
    | None -> ());
    t.running <- true;
    run_cycle t
  end

(* Step one (Figure 2, steps 1-4): drain a batch from the receive ring,
   parse each message into its tenant's software queue, run a QoS
   scheduling round, and submit admitted requests to the NVMe SQ.  The
   CPU for receive + parse + scheduling is charged before submissions
   take effect. *)
and run_cycle t =
  let costs = t.costs in
  if t.fl_on then
    Reflex_obs.Flight.record t.fl ~now:(Sim.now t.sim) ~kind:Reflex_obs.Flight.Kind.Queue_depth
      ~a:t.thread_id ~b:t.n_outstanding
      ~v:(float_of_int (Queue.length t.rx_ring));
  (* Size the batch up front (the ring only grows until we drain it, and
     this thread is the sole consumer), charge the CPU, then pop the same
     [n] messages straight off the ring in [step1] — no intermediate
     batch list on the per-cycle path. *)
  let n = min costs.batch_max (Queue.length t.rx_ring) in
  let per_msg = Time.add costs.rx_per_msg costs.parse_per_msg in
  let sched_cpu =
    Time.add costs.sched_base
      (Time.scale costs.sched_per_tenant (float_of_int (Scheduler.tenant_count t.scheduler)))
  in
  let step1_cpu = Time.add (Time.scale per_msg (float_of_int n)) sched_cpu in
  Resource.submit t.core ~service:(charge t step1_cpu) t.step1 n

and run_step1 t n =
  (* Requests enter their tenant's queue with the token cost fixed by
     the device's current read/write mix.  A tenant rebalanced away
     between arrival and parsing gets its requests rerouted, never
     dropped (paper §3.1). *)
  for _ = 1 to n do
    let p = Queue.pop t.rx_ring in
    if Scheduler.has_tenant t.scheduler p.p_tenant then begin
      let cost =
        Cost_model.request_cost t.cost_model ~kind:p.p_kind ~bytes:p.p_bytes
          ~read_only:(Nvme_model.read_only_mode t.device)
      in
      Scheduler.enqueue t.scheduler ~tenant_id:p.p_tenant ~cost p;
      if t.tel_on then
        Telemetry.span t.tel ~now:(Sim.now t.sim) ~tenant:p.p_tenant
          ~req_id:(t.trace_id p.p_payload) Telemetry.Stage.Sched_enqueue
    end
    else t.reroute ~tenant_id:p.p_tenant ~kind:p.p_kind ~bytes:p.p_bytes p.p_payload
  done;
  t.submissions <- 0;
  (* Submissions deferred on a full SQ go first — their tokens are
     already spent.  Stop at the first refusal: the SQ is full again. *)
  let retrying = ref true in
  while !retrying && not (Queue.is_empty t.deferred) do
    if try_submit t (Queue.peek t.deferred) then ignore (Queue.pop t.deferred)
    else retrying := false
  done;
  t.rounds <- t.rounds + 1;
  ignore (Scheduler.schedule t.scheduler ~now:(Sim.now t.sim) ~submit:t.submit_k);
  let submit_cpu = Time.scale t.costs.submit_per_req (float_of_int t.submissions) in
  Resource.submit t.core ~service:(charge t submit_cpu) t.step1_done 0

(* Step two (Figure 2, steps 5-8): poll the completion queue, deliver
   completion events, transmit responses. *)
and run_step2 t =
  let costs = t.costs in
  (* Size the batch now (CPU is charged for what this cycle will reap);
     the reap itself happens in [reap_batch] via [Queue_pair.drain] —
     the CQ ring is FIFO, so the first [n] entries then are exactly the
     ones pending here, and no completion list is ever built. *)
  let pending = Queue_pair.completions_pending t.qp in
  let n = if pending < costs.batch_max then pending else costs.batch_max in
  let step2_cpu = Time.scale costs.complete_per_req (float_of_int n) in
  Resource.submit t.core ~service:(charge t step2_cpu) t.step2 n

and reap_batch t n =
  let _ : int = Queue_pair.drain t.qp ~max:n ~f:t.reap_k in
  finish_cycle t

and finish_cycle t =
  t.running <- false;
  let have_rx = not (Queue.is_empty t.rx_ring) in
  let have_cq = Queue_pair.completions_pending t.qp > 0 in
  let have_deferred = not (Queue.is_empty t.deferred) in
  if have_rx || have_cq || have_deferred then kick t
  else if Scheduler.has_backlog t.scheduler then
    (* Only rate-limited backlog remains: re-enter the scheduler once
       tokens have accrued. *)
    match t.idle_timer with
    | Some _ -> ()
    | None -> t.idle_timer <- Some (Sim.after t.sim t.costs.idle_sched_period t.idle_k)

(* Cold path: double the cookie slots; [filler] fills the fresh ones. *)
and grow_outstanding t pend =
  let filler = match t.filler with Some f -> f | None -> pend in
  t.filler <- Some filler;
  let cap = Array.length t.outstanding in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let o = Array.make ncap filler in
  Array.blit t.outstanding 0 o 0 cap;
  t.outstanding <- o;
  let f = Array.make ncap 0 in
  Array.blit t.free_cookies 0 f 0 t.free_len;
  t.free_cookies <- f;
  for slot = ncap - 1 downto cap do
    t.free_cookies.(t.free_len) <- slot;
    t.free_len <- t.free_len + 1
  done

(* Hand one released request to the NVMe SQ; false when the SQ is full. *)
and try_submit t (s : 'a pending Scheduler.submission) =
  let pend = s.Scheduler.payload in
  if t.free_len = 0 then grow_outstanding t pend;
  let cookie = t.free_cookies.(t.free_len - 1) in
  match Queue_pair.submit t.qp ~kind:pend.p_kind ~bytes:pend.p_bytes ~cookie with
  | `Ok ->
    t.free_len <- t.free_len - 1;
    t.outstanding.(cookie) <- pend;
    t.n_outstanding <- t.n_outstanding + 1;
    t.spent.tokens_spent <- t.spent.tokens_spent +. s.Scheduler.cost;
    t.submissions <- t.submissions + 1;
    if t.tel_on then
      Telemetry.span t.tel ~now:(Sim.now t.sim) ~tenant:pend.p_tenant
        ~req_id:(t.trace_id pend.p_payload) Telemetry.Stage.Nvme_submit;
    if t.hops_on then
      Reflex_obs.Hopsink.stamp t.hops ~tenant:pend.p_tenant ~req:(t.trace_id pend.p_payload)
        ~hop:2 ~now:(Sim.now t.sim);
    true
  | `Full -> false

(* The scheduler released this request: its tokens are granted and
   spent, whether or not the SQ has room right now. *)
and submit_to_qp t s =
  if t.tel_on then begin
    let pend = s.Scheduler.payload in
    Telemetry.span t.tel ~now:(Sim.now t.sim) ~tenant:pend.p_tenant
      ~req_id:(t.trace_id pend.p_payload) Telemetry.Stage.Granted
  end;
  if not (try_submit t s) then Queue.add s t.deferred

(* One reaped completion: free its cookie and respond. *)
and reap t ~cookie ~kind ~latency =
  let pend = t.outstanding.(cookie) in
  (match t.filler with Some f -> t.outstanding.(cookie) <- f | None -> ());
  t.free_cookies.(t.free_len) <- cookie;
  t.free_len <- t.free_len + 1;
  t.n_outstanding <- t.n_outstanding - 1;
  t.completed <- t.completed + 1;
  if t.tel_on then
    Telemetry.span t.tel ~now:(Sim.now t.sim) ~tenant:pend.p_tenant
      ~req_id:(t.trace_id pend.p_payload) Telemetry.Stage.Nvme_complete;
  if t.hops_on then
    Reflex_obs.Hopsink.stamp t.hops ~tenant:pend.p_tenant ~req:(t.trace_id pend.p_payload) ~hop:3
      ~now:(Sim.now t.sim);
  t.respond { payload = pend.p_payload; kind; nvme_latency = latency }

let create sim ~thread_id ~qp ~device ~cost_model ~global ?(costs = Costs.default)
    ?neg_limit ?donate_fraction ?notify_control_plane
    ?(reroute = fun ~tenant_id ~kind:_ ~bytes:_ _ -> ignore tenant_id; raise Not_found)
    ?(telemetry = Telemetry.disabled) ?(trace_id = fun _ -> 0) ~respond () =
  let scheduler =
    Scheduler.create ?neg_limit ?donate_fraction ~global ~thread_id ?notify_control_plane
      ~telemetry ()
  in
  let t =
    {
      sim;
      thread_id;
      core = Resource.create sim;
      qp;
      device;
      cost_model;
      scheduler;
      costs;
      respond;
      reroute;
      rx_ring = Queue.create ();
      outstanding = [||];
      free_cookies = [||];
      free_len = 0;
      n_outstanding = 0;
      filler = None;
      deferred = Queue.create ();
      conns = 0;
      running = false;
      idle_timer = None;
      created_at = Sim.now sim;
      completed = 0;
      spent = { tokens_spent = 0.0 };
      rounds = 0;
      tel = telemetry;
      tel_on = Telemetry.enabled telemetry;
      fl = Telemetry.flight telemetry;
      fl_on = Reflex_obs.Flight.enabled (Telemetry.flight telemetry);
      trace_id;
      hops = Reflex_obs.Hopsink.null;
      hops_on = false;
      step1 = ignore;
      step1_done = ignore;
      step2 = ignore;
      submit_k = ignore;
      reap_k = (fun ~cookie:_ ~kind:_ ~latency:_ -> ());
      idle_k = ignore;
      submissions = 0;
    }
  in
  t.step1 <- run_step1 t;
  t.step1_done <- (fun _ -> run_step2 t);
  t.step2 <- reap_batch t;
  t.submit_k <- submit_to_qp t;
  t.reap_k <- reap t;
  t.idle_k <-
    (fun () ->
      t.idle_timer <- None;
      kick t);
  if t.tel_on then begin
    let p = Printf.sprintf "core/thread%d/" thread_id in
    Telemetry.register_gauge telemetry (p ^ "rx_ring") (fun () ->
        float_of_int (Queue.length t.rx_ring));
    Telemetry.register_gauge telemetry (p ^ "outstanding") (fun () ->
        float_of_int t.n_outstanding);
    Telemetry.register_gauge telemetry (p ^ "deferred") (fun () ->
        float_of_int (Queue.length t.deferred));
    Telemetry.register_gauge telemetry (p ^ "rounds") (fun () -> float_of_int t.rounds);
    Telemetry.register_gauge telemetry (p ^ "completed") (fun () -> float_of_int t.completed);
    Telemetry.register_gauge telemetry (p ^ "tokens_spent") (fun () -> t.spent.tokens_spent);
    Telemetry.register_gauge telemetry (p ^ "backlog") (fun () -> Scheduler.backlog t.scheduler);
    Telemetry.register_gauge telemetry (p ^ "util") (fun () -> Resource.utilization t.core)
  end;
  (* A completion landing while the thread is idle is noticed by its next
     poll iteration. *)
  Queue_pair.set_completion_hook qp (fun () -> kick t);
  t

let detach_tenant t ~id =
  match Scheduler.find_tenant t.scheduler id with
  | None -> None
  | Some tenant ->
    let rec drain acc =
      if Tenant.queue_length tenant = 0 then List.rev acc
      else begin
        let pend = Tenant.pop tenant in
        drain ((pend.p_kind, pend.p_bytes, pend.p_payload) :: acc)
      end
    in
    let backlog = drain [] in
    let slo = Tenant.slo tenant and rate = Tenant.token_rate tenant in
    Scheduler.remove_tenant t.scheduler id;
    Some (slo, rate, backlog)

let receive t ~tenant_id ~kind ~bytes payload =
  if not (has_tenant t ~id:tenant_id) then raise Not_found;
  if t.tel_on then
    Telemetry.span t.tel ~now:(Sim.now t.sim) ~tenant:tenant_id ~req_id:(t.trace_id payload)
      Telemetry.Stage.Server_rx;
  Queue.add { p_payload = payload; p_kind = kind; p_bytes = bytes; p_tenant = tenant_id }
    t.rx_ring;
  kick t

let attach_tenant t ~id ~slo ~token_rate ~backlog =
  add_tenant t ~id ~slo ~token_rate;
  List.iter (fun (kind, bytes, payload) -> receive t ~tenant_id:id ~kind ~bytes payload) backlog

(* Fault injection: occupy the thread's core with an uninterruptible
   burst of "other work" (interrupt storm, page-cache shootdown, noisy
   co-tenant on the shared core).  High priority so it runs ahead of
   queued cycle steps; the dataplane's own work queues behind it exactly
   as it would behind a hogged physical core. *)
let inject_stall t ~duration =
  if Time.(duration <= Time.zero) then invalid_arg "Dataplane.inject_stall: duration";
  Resource.submit t.core ~priority:Resource.High ~service:duration ignore 0

let set_hopsink t sink =
  t.hops <- sink;
  t.hops_on <- Reflex_obs.Hopsink.enabled sink

let set_conn_count t n = t.conns <- n
let utilization t = Resource.utilization t.core
let requests_completed t = t.completed
let tokens_spent t = t.spent.tokens_spent

let token_usage_rate t =
  let elapsed = Time.to_float_sec (Time.diff (Sim.now t.sim) t.created_at) in
  if elapsed <= 0.0 then 0.0 else t.spent.tokens_spent /. elapsed

(* Cumulative weighted tokens this tenant's submitted requests cost — the
   per-tenant half of the load-knee signal (lib/monitor takes windowed
   deltas to place each tenant on the latency-vs-weighted-IOPS curve). *)
let tenant_tokens_submitted t ~id =
  match Scheduler.find_tenant t.scheduler id with
  | Some tenant -> Some (Tenant.submitted_cost_total tenant)
  | None -> None

let scheduling_rounds t = t.rounds

(* Requests inside this thread, wherever they sit: unparsed receive-ring
   entries, software-queued tenant requests, and in-flight NVMe
   commands.  Probe-path metric for the rack-level load balancers. *)
let queue_depth t =
  Queue.length t.rx_ring + Scheduler.queue_depth t.scheduler + t.n_outstanding
