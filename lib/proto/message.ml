type status = Ok | Denied | No_capacity | Bad_request | Out_of_range | Timed_out

let status_to_string = function
  | Ok -> "ok"
  | Denied -> "denied"
  | No_capacity -> "no-capacity"
  | Bad_request -> "bad-request"
  | Out_of_range -> "out-of-range"
  | Timed_out -> "timed-out"

let equal_status (a : status) b = a = b

type slo = { latency_us : int; iops : int; read_pct : int; latency_critical : bool }

let best_effort_slo = { latency_us = 0; iops = 0; read_pct = 100; latency_critical = false }

type t =
  | Register of { tenant : int; slo : slo }
  | Unregister of { handle : int }
  | Read_req of { handle : int; req_id : int; lba : int; len : int }
  | Write_req of { handle : int; req_id : int; lba : int; len : int }
  | Barrier_req of { handle : int; req_id : int }
  | Registered of { handle : int; status : status }
  | Unregistered of { handle : int }
  | Read_resp of { req_id : int; status : status; len : int }
  | Write_resp of { req_id : int; status : status }
  | Barrier_resp of { req_id : int }
  | Error_resp of { req_id : int; status : status }

let equal (a : t) b = a = b

let pp fmt = function
  | Register { tenant; slo } ->
    Format.fprintf fmt "register(tenant=%d, %s, %d IOPS, %dus, %d%%r)" tenant
      (if slo.latency_critical then "LC" else "BE")
      slo.iops slo.latency_us slo.read_pct
  | Unregister { handle } -> Format.fprintf fmt "unregister(%d)" handle
  | Read_req { handle; req_id; lba; len } ->
    Format.fprintf fmt "read(h=%d, id=%d, lba=%d, len=%d)" handle req_id lba len
  | Write_req { handle; req_id; lba; len } ->
    Format.fprintf fmt "write(h=%d, id=%d, lba=%d, len=%d)" handle req_id lba len
  | Registered { handle; status } ->
    Format.fprintf fmt "registered(h=%d, %s)" handle (status_to_string status)
  | Unregistered { handle } -> Format.fprintf fmt "unregistered(%d)" handle
  | Read_resp { req_id; status; len } ->
    Format.fprintf fmt "read_resp(id=%d, %s, len=%d)" req_id (status_to_string status) len
  | Write_resp { req_id; status } ->
    Format.fprintf fmt "write_resp(id=%d, %s)" req_id (status_to_string status)
  | Barrier_req { handle; req_id } -> Format.fprintf fmt "barrier(h=%d, id=%d)" handle req_id
  | Barrier_resp { req_id } -> Format.fprintf fmt "barrier_resp(id=%d)" req_id
  | Error_resp { req_id; status } ->
    Format.fprintf fmt "error(id=%d, %s)" req_id (status_to_string status)

let payload_bytes = function
  | Write_req { len; _ } -> len
  | Read_resp { status = Ok; len; _ } -> len
  | Read_resp _ -> 0
  | Register _ | Unregister _ | Read_req _ | Barrier_req _ | Registered _ | Unregistered _
  | Write_resp _ | Barrier_resp _ | Error_resp _ ->
    0
