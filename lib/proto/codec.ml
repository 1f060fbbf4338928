(* Header layout (little-endian), 28 bytes:
   0  u16 magic 0x5246 ("RF")
   2  u8  opcode
   3  u8  status/flags
   4  u32 handle / tenant id
   8  u64 req id
   16 u64 lba          (register: packs iops u32 | latency_us u24 | read_pct u8... see below)
   24 u32 len          (payload length, or SLO flags for register) *)

let header_size = 28
let magic = 0x5246

let op_register = 0
let op_unregister = 1
let op_read = 2
let op_write = 3
let op_registered = 4
let op_unregistered = 5
let op_read_resp = 6
let op_write_resp = 7
let op_error = 8
let op_barrier = 9
let op_barrier_resp = 10

let status_to_int : Message.status -> int = function
  | Ok -> 0
  | Denied -> 1
  | No_capacity -> 2
  | Bad_request -> 3
  | Out_of_range -> 4
  | Timed_out -> 5

let status_of_int = function
  | 0 -> Message.Ok
  | 1 -> Message.Denied
  | 2 -> Message.No_capacity
  | 3 -> Message.Bad_request
  | 4 -> Message.Out_of_range
  | 5 -> Message.Timed_out
  | n -> invalid_arg (Printf.sprintf "Codec: unknown status %d" n)

let encoded_size msg = header_size + Message.payload_bytes msg

(* For Register, the lba field packs the SLO:
   bits 0-31 iops, 32-55 latency_us, 56-62 read_pct, 63 latency_critical. *)
let pack_slo (s : Message.slo) =
  let open Int64 in
  logor
    (logor (of_int (s.iops land 0xFFFFFFFF)) (shift_left (of_int (s.latency_us land 0xFFFFFF)) 32))
    (logor
       (shift_left (of_int (s.read_pct land 0x7F)) 56)
       (if s.latency_critical then shift_left 1L 63 else 0L))

let unpack_slo v : Message.slo =
  let open Int64 in
  {
    iops = to_int (logand v 0xFFFFFFFFL);
    latency_us = to_int (logand (shift_right_logical v 32) 0xFFFFFFL);
    read_pct = to_int (logand (shift_right_logical v 56) 0x7FL);
    latency_critical = shift_right_logical v 63 = 1L;
  }

let set_u16 buf off v =
  Bytes.set_uint8 buf off (v land 0xFF);
  Bytes.set_uint8 buf (off + 1) ((v lsr 8) land 0xFF)

let get_u16 buf off = Bytes.get_uint8 buf off lor (Bytes.get_uint8 buf (off + 1) lsl 8)

let set_u32 buf off v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec: u32 out of range";
  set_u16 buf off (v land 0xFFFF);
  set_u16 buf (off + 2) ((v lsr 16) land 0xFFFF)

let get_u32 buf off = get_u16 buf off lor (get_u16 buf (off + 2) lsl 16)

let set_u64 buf off v = Bytes.set_int64_le buf off v
let get_u64 buf off = Bytes.get_int64_le buf off

(* Request ids are immediate ints in [0, max_int]; the wire keeps the
   64-bit field, converted only here. *)
let set_req_id buf off v =
  if v < 0 then invalid_arg "Codec: req_id out of range";
  set_u64 buf off (Int64.of_int v)

let get_req_id buf off =
  let v = get_u64 buf off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    invalid_arg (Printf.sprintf "Codec.decode: req_id %Lu out of range" v);
  Int64.to_int v

(* LBAs are immediate ints in [0, max_int] too, in the same 64-bit
   field (which a register message uses for its packed SLO). *)
let lba_to_wire v =
  if v < 0 then invalid_arg "Codec: lba out of range";
  Int64.of_int v

let lba_of_wire v =
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    invalid_arg (Printf.sprintf "Codec.decode: lba %Lu out of range" v);
  Int64.to_int v

let fields = function
  | Message.Register { tenant; slo } -> (op_register, 0, tenant, 0, pack_slo slo, 0)
  | Message.Unregister { handle } -> (op_unregister, 0, handle, 0, 0L, 0)
  | Message.Read_req { handle; req_id; lba; len } ->
    (op_read, 0, handle, req_id, lba_to_wire lba, len)
  | Message.Write_req { handle; req_id; lba; len } ->
    (op_write, 0, handle, req_id, lba_to_wire lba, len)
  | Message.Registered { handle; status } ->
    (op_registered, status_to_int status, handle, 0, 0L, 0)
  | Message.Unregistered { handle } -> (op_unregistered, 0, handle, 0, 0L, 0)
  | Message.Read_resp { req_id; status; len } ->
    (op_read_resp, status_to_int status, 0, req_id, 0L, len)
  | Message.Write_resp { req_id; status } -> (op_write_resp, status_to_int status, 0, req_id, 0L, 0)
  | Message.Error_resp { req_id; status } -> (op_error, status_to_int status, 0, req_id, 0L, 0)
  | Message.Barrier_req { handle; req_id } -> (op_barrier, 0, handle, req_id, 0L, 0)
  | Message.Barrier_resp { req_id } -> (op_barrier_resp, 0, 0, req_id, 0L, 0)

let encode_into msg buf off =
  let size = encoded_size msg in
  if Bytes.length buf - off < size then invalid_arg "Codec.encode_into: buffer too small";
  let opcode, status, handle, req_id, lba, len = fields msg in
  set_u16 buf off magic;
  Bytes.set_uint8 buf (off + 2) opcode;
  Bytes.set_uint8 buf (off + 3) status;
  set_u32 buf (off + 4) handle;
  set_req_id buf (off + 8) req_id;
  set_u64 buf (off + 16) lba;
  set_u32 buf (off + 24) len;
  (* Zero-fill payload: data content is synthetic in the simulator. *)
  Bytes.fill buf (off + header_size) (size - header_size) '\000';
  size

let encode msg =
  let buf = Bytes.create (encoded_size msg) in
  ignore (encode_into msg buf 0);
  buf

let peek_header buf off =
  if Bytes.length buf - off < header_size then invalid_arg "Codec.decode: short header";
  if get_u16 buf off <> magic then invalid_arg "Codec.decode: bad magic";
  let opcode = Bytes.get_uint8 buf (off + 2) in
  if opcode < op_register || opcode > op_barrier_resp then
    invalid_arg (Printf.sprintf "Codec.decode: unknown opcode %d" opcode);
  let len = get_u32 buf (off + 24) in
  (opcode, len)

let peek_total buf off =
  let opcode, len = peek_header buf off in
  (* Only write requests and successful read responses carry payload. *)
  let has_payload =
    opcode = op_write || (opcode = op_read_resp && Bytes.get_uint8 buf (off + 3) = 0)
  in
  header_size + (if has_payload then len else 0)

let decode buf off =
  if Bytes.length buf - off < header_size then invalid_arg "Codec.decode: short header";
  if get_u16 buf off <> magic then invalid_arg "Codec.decode: bad magic";
  let opcode = Bytes.get_uint8 buf (off + 2) in
  let status = status_of_int (Bytes.get_uint8 buf (off + 3)) in
  let handle = get_u32 buf (off + 4) in
  let req_id = get_req_id buf (off + 8) in
  let wire_lba = get_u64 buf (off + 16) in
  let len = get_u32 buf (off + 24) in
  let msg =
    if opcode = op_register then Message.Register { tenant = handle; slo = unpack_slo wire_lba }
    else if opcode = op_unregister then Message.Unregister { handle }
    else if opcode = op_read then
      Message.Read_req { handle; req_id; lba = lba_of_wire wire_lba; len }
    else if opcode = op_write then
      Message.Write_req { handle; req_id; lba = lba_of_wire wire_lba; len }
    else if opcode = op_registered then Message.Registered { handle; status }
    else if opcode = op_unregistered then Message.Unregistered { handle }
    else if opcode = op_read_resp then Message.Read_resp { req_id; status; len }
    else if opcode = op_write_resp then Message.Write_resp { req_id; status }
    else if opcode = op_error then Message.Error_resp { req_id; status }
    else if opcode = op_barrier then Message.Barrier_req { handle; req_id }
    else if opcode = op_barrier_resp then Message.Barrier_resp { req_id }
    else invalid_arg (Printf.sprintf "Codec.decode: unknown opcode %d" opcode)
  in
  let total = header_size + Message.payload_bytes msg in
  if Bytes.length buf - off < total then invalid_arg "Codec.decode: short payload";
  (msg, total)
