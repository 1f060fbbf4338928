(** Binary encoding of {!Message.t}.

    Fixed little-endian header followed by an optional data payload
    (write-request data, read-response data).  The per-request overhead of
    a 4KB access is [header_size] bytes, matching the paper's observation
    that ReFlex requests add only tens of bytes per 4KB. *)

(** Bytes of every message header on the wire. *)
val header_size : int

(** Total wire size of a message: header plus payload. *)
val encoded_size : Message.t -> int

(** [encode msg] allocates and fills the wire representation.  Payload
    bytes (if any) are zero-filled — the simulator tracks data by length,
    not content. *)
val encode : Message.t -> bytes

(** [encode_into msg buf off] writes at [off], returning the bytes
    written.  Raises [Invalid_argument] if [buf] is too small or the
    request id or a read/write request's LBA is negative. *)
val encode_into : Message.t -> bytes -> int -> int

(** [peek_total buf off] reads just the header at [off] and returns the
    total wire size of the message (header + payload) without touching the
    payload.  Raises like {!decode} on a malformed header. *)
val peek_total : bytes -> int -> int

(** [decode buf off] parses one message starting at [off]; returns the
    message and total bytes consumed (header + payload).
    Raises [Invalid_argument] on bad magic, unknown opcode, short
    buffer, or a 64-bit wire request id or read/write LBA outside
    [[0, max_int]] (request ids and LBAs are immediate [int]s; the wire
    fields keep 64 bits). *)
val decode : bytes -> int -> Message.t * int
