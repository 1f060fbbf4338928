type acct = {
  mutable token_rate : float;
  mutable tokens : float;
  mutable demand : float;
  mutable head_cost : float;
  mutable submitted_cost : float;
  mutable granted_total : float;
  mutable g0 : float;
  mutable g1 : float;
  mutable g2 : float;
}

type backlog = { mutable total : float }

type 'a t = {
  id : int;
  slo : Slo.t;
  acct : acct;
  mutable grant_pos : int; (* next POS_LIMIT slot to write, 0..2 *)
  (* The request ring: [costs] and [payloads] share slots and a
     power-of-two capacity; [len] requests start at slot [head]. *)
  mutable costs : float array;
  mutable payloads : 'a array;
  mutable head : int;
  mutable len : int;
  (* What vacated payload slots are overwritten with: the first request
     ever queued, set when the ring first grows. *)
  mutable filler : 'a option;
  mutable backlog : backlog;
}

let create ~id ~slo ~token_rate =
  if token_rate < 0.0 then invalid_arg "Tenant.create: negative token rate";
  {
    id;
    slo;
    acct =
      {
        token_rate;
        tokens = 0.0;
        demand = 0.0;
        head_cost = 0.0;
        submitted_cost = 0.0;
        granted_total = 0.0;
        g0 = 0.0;
        g1 = 0.0;
        g2 = 0.0;
      };
    grant_pos = 0;
    costs = [||];
    payloads = [||];
    head = 0;
    len = 0;
    filler = None;
    backlog = { total = 0.0 };
  }

let attach_backlog t cell = t.backlog <- cell
let detach_backlog t = t.backlog <- { total = 0.0 }

let id t = t.id
let slo t = t.slo
let is_latency_critical t = Slo.is_latency_critical t.slo
let acct t = t.acct
let token_rate t = t.acct.token_rate

let set_token_rate t r =
  if r < 0.0 then invalid_arg "Tenant.set_token_rate: negative rate";
  t.acct.token_rate <- r

let tokens t = t.acct.tokens

(* Double the ring (4 slots at first), unrolling it to start at slot 0.
   [req] fills the new payload slots so no dummy value is needed; the
   first one also becomes the filler. *)
let grow t req =
  let cap = Array.length t.costs in
  let ncap = if cap = 0 then 4 else 2 * cap in
  let costs = Array.make ncap 0.0 and payloads = Array.make ncap req in
  for k = 0 to t.len - 1 do
    let i = (t.head + k) land (cap - 1) in
    costs.(k) <- t.costs.(i);
    payloads.(k) <- t.payloads.(i)
  done;
  (match t.filler with None -> t.filler <- Some req | Some _ -> ());
  t.costs <- costs;
  t.payloads <- payloads;
  t.head <- 0

let enqueue t ~cost req =
  if cost <= 0.0 then invalid_arg "Tenant.enqueue: non-positive cost";
  if t.len = Array.length t.costs then grow t req;
  let i = (t.head + t.len) land (Array.length t.costs - 1) in
  t.costs.(i) <- cost;
  t.payloads.(i) <- req;
  if t.len = 0 then t.acct.head_cost <- cost;
  t.len <- t.len + 1;
  t.acct.demand <- t.acct.demand +. cost;
  t.backlog.total <- t.backlog.total +. cost

let pop t =
  if t.len = 0 then invalid_arg "Tenant.pop: empty queue";
  let i = t.head in
  let cost = t.costs.(i) in
  let req = t.payloads.(i) in
  (match t.filler with Some f -> t.payloads.(i) <- f | None -> ());
  t.head <- (i + 1) land (Array.length t.costs - 1);
  t.len <- t.len - 1;
  t.acct.head_cost <- (if t.len = 0 then 0.0 else t.costs.(t.head));
  let before = t.acct.demand in
  let after = before -. cost in
  (* Guard against float drift on long runs. *)
  let after = if after < 0.0 then 0.0 else after in
  t.acct.demand <- after;
  (* Report the clamped delta so the aggregate tracks the clamped sum. *)
  t.backlog.total <- t.backlog.total +. (after -. before);
  req

let demand t = t.acct.demand
let queue_length t = t.len

let next_grant_slot t =
  let slot = t.grant_pos in
  t.grant_pos <- (if slot = 2 then 0 else slot + 1);
  slot

let granted_total t = t.acct.granted_total
let submitted_cost_total t = t.acct.submitted_cost
