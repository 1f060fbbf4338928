type priority = High | Low

(* Pending jobs of one priority: a power-of-two ring in
   structure-of-arrays layout (service, continuation, argument), empty
   until the first job has to wait and doubled in the cold [grow].  A
   vacated continuation slot is overwritten with [noop_k], so the ring
   keeps nothing reachable that its owner has finished with. *)
type ring = {
  mutable service : Time.t array;
  mutable k : (int -> unit) array;
  mutable arg : int array;
  mutable head : int;
  mutable len : int;
}

type t = {
  sim : Sim.t;
  created_at : Time.t;
  high : ring;
  low : ring;
  (* the job in service *)
  mutable busy : bool;
  mutable cur_service : Time.t;
  mutable cur_k : int -> unit;
  mutable cur_arg : int;
  (* [finish t], made once at creation: the completion event of every job *)
  mutable finish : unit -> unit;
  mutable busy_time : Time.t;
  mutable completed : int;
}

let noop_k (_ : int) = ()

let make_ring () = { service = [||]; k = [||]; arg = [||]; head = 0; len = 0 }

(* Cold path: first use, or the ring is full. *)
let grow r =
  let cap = Array.length r.service in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let service = Array.make ncap Time.zero in
  let k = Array.make ncap noop_k in
  let arg = Array.make ncap 0 in
  for i = 0 to r.len - 1 do
    let j = (r.head + i) land (cap - 1) in
    service.(i) <- r.service.(j);
    k.(i) <- r.k.(j);
    arg.(i) <- r.arg.(j)
  done;
  r.service <- service;
  r.k <- k;
  r.arg <- arg;
  r.head <- 0

let push r ~service k arg =
  if r.len = Array.length r.service then grow r;
  let i = (r.head + r.len) land (Array.length r.service - 1) in
  r.service.(i) <- service;
  r.k.(i) <- k;
  r.arg.(i) <- arg;
  r.len <- r.len + 1

(* Put a job in service: its completion is [t.finish], [service] from
   now. *)
let start t ~service k arg =
  t.busy <- true;
  t.cur_service <- service;
  t.cur_k <- k;
  t.cur_arg <- arg;
  ignore (Sim.after t.sim service t.finish)

(* Start the ring's head job. *)
let start_head t r =
  let i = r.head in
  let k = r.k.(i) in
  r.k.(i) <- noop_k;
  r.head <- (i + 1) land (Array.length r.service - 1);
  r.len <- r.len - 1;
  start t ~service:r.service.(i) k r.arg.(i)

(* The in-service job completes.  The next job is dispatched (its
   completion event scheduled) before the finished job's continuation
   runs, so a continuation that submits again queues behind it. *)
let finish t =
  let k = t.cur_k and arg = t.cur_arg in
  t.busy <- false;
  t.cur_k <- noop_k;
  t.busy_time <- Time.add t.busy_time t.cur_service;
  t.completed <- t.completed + 1;
  if t.high.len > 0 then start_head t t.high
  else if t.low.len > 0 then start_head t t.low;
  k arg

let create sim =
  let rec t =
    {
      sim;
      created_at = Sim.now sim;
      high = make_ring ();
      low = make_ring ();
      busy = false;
      cur_service = Time.zero;
      cur_k = noop_k;
      cur_arg = 0;
      finish = (fun () -> finish t);
      busy_time = Time.zero;
      completed = 0;
    }
  in
  t

let submit t ?(priority = High) ~service k arg =
  if Time.(service < Time.zero) then invalid_arg "Resource.submit: negative service";
  if not t.busy then start t ~service k arg
  else
    match priority with
    | High -> push t.high ~service k arg
    | Low -> push t.low ~service k arg

let busy t = if t.busy then 1 else 0
let queued t = (t.high.len, t.low.len)
let busy_time t = t.busy_time

let utilization t =
  let elapsed = Time.diff (Sim.now t.sim) t.created_at in
  if Time.(elapsed <= Time.zero) then 0.0
  else Time.to_float_ns t.busy_time /. Time.to_float_ns elapsed

let completed t = t.completed
