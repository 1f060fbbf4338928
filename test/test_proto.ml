(* Tests for the wire protocol: codec roundtrips and stream framing. *)

open Reflex_proto

let sample_messages =
  [
    Message.Register
      {
        tenant = 42;
        slo = { latency_us = 500; iops = 120_000; read_pct = 80; latency_critical = true };
      };
    Message.Register { tenant = 7; slo = Message.best_effort_slo };
    Message.Unregister { handle = 3 };
    Message.Read_req { handle = 1; req_id = 99; lba = 123_456; len = 4096 };
    Message.Write_req { handle = 2; req_id = 100; lba = 0; len = 1024 };
    Message.Registered { handle = 5; status = Message.Ok };
    Message.Registered { handle = 5; status = Message.No_capacity };
    Message.Unregistered { handle = 5 };
    Message.Read_resp { req_id = 99; status = Message.Ok; len = 4096 };
    Message.Read_resp { req_id = 98; status = Message.Out_of_range; len = 0 };
    Message.Write_resp { req_id = 100; status = Message.Ok };
    Message.Barrier_req { handle = 3; req_id = 55 };
    Message.Barrier_resp { req_id = 55 };
    Message.Error_resp { req_id = 1; status = Message.Bad_request };
  ]

let msg_testable = Alcotest.testable Message.pp Message.equal

let test_roundtrip_all () =
  List.iter
    (fun msg ->
      let buf = Codec.encode msg in
      Alcotest.(check int) "encoded_size matches" (Bytes.length buf) (Codec.encoded_size msg);
      let decoded, consumed = Codec.decode buf 0 in
      Alcotest.check msg_testable "roundtrip" msg decoded;
      Alcotest.(check int) "consumed everything" (Bytes.length buf) consumed)
    sample_messages

let test_payload_sizes () =
  let read_req = Message.Read_req { handle = 1; req_id = 1; lba = 0; len = 4096 } in
  Alcotest.(check int) "read request carries no data" Codec.header_size
    (Codec.encoded_size read_req);
  let write_req = Message.Write_req { handle = 1; req_id = 1; lba = 0; len = 4096 } in
  Alcotest.(check int) "write request carries data" (Codec.header_size + 4096)
    (Codec.encoded_size write_req);
  let resp_ok = Message.Read_resp { req_id = 1; status = Message.Ok; len = 4096 } in
  Alcotest.(check int) "ok read response carries data" (Codec.header_size + 4096)
    (Codec.encoded_size resp_ok);
  let resp_err = Message.Read_resp { req_id = 1; status = Message.Out_of_range; len = 4096 } in
  Alcotest.(check int) "failed read response carries none" Codec.header_size
    (Codec.encoded_size resp_err);
  (* Paper: per-4KB-request overhead is tens of bytes. *)
  Alcotest.(check bool) "header under 40 bytes" true (Codec.header_size <= 40)

let test_bad_magic () =
  let buf = Codec.encode (Message.Unregister { handle = 1 }) in
  Bytes.set_uint8 buf 0 0xFF;
  Alcotest.check_raises "bad magic" (Invalid_argument "Codec.decode: bad magic") (fun () ->
      ignore (Codec.decode buf 0))

let test_bad_opcode () =
  let buf = Codec.encode (Message.Unregister { handle = 1 }) in
  Bytes.set_uint8 buf 2 99;
  Alcotest.check_raises "unknown opcode" (Invalid_argument "Codec.decode: unknown opcode 99")
    (fun () -> ignore (Codec.decode buf 0))

let test_short_buffer () =
  Alcotest.check_raises "short header" (Invalid_argument "Codec.decode: short header") (fun () ->
      ignore (Codec.decode (Bytes.create 4) 0))

let test_encode_into_offset () =
  let msg = Message.Read_req { handle = 9; req_id = 5; lba = 77; len = 512 } in
  let buf = Bytes.make (Codec.header_size + 10) '\xAA' in
  let n = Codec.encode_into msg buf 10 in
  Alcotest.(check int) "bytes written" Codec.header_size n;
  let decoded, _ = Codec.decode buf 10 in
  Alcotest.check msg_testable "decodes at offset" msg decoded;
  Alcotest.check_raises "no room" (Invalid_argument "Codec.encode_into: buffer too small")
    (fun () -> ignore (Codec.encode_into msg buf 11))

(* Request ids are immediate ints; the wire field keeps 64 bits.  The
   extremes of [0, max_int] roundtrip, and a wire id outside that range is
   rejected by name instead of being truncated. *)
let test_req_id_boundary () =
  List.iter
    (fun req_id ->
      List.iter
        (fun msg ->
          let decoded, _ = Codec.decode (Codec.encode msg) 0 in
          Alcotest.check msg_testable (Printf.sprintf "req_id %d roundtrips" req_id) msg decoded)
        [
          Message.Read_req { handle = 1; req_id; lba = 8; len = 4096 };
          Message.Write_resp { req_id; status = Message.Ok };
          Message.Barrier_resp { req_id };
        ])
    [ 0; 1; max_int ];
  let buf = Codec.encode (Message.Barrier_resp { req_id = 1 }) in
  List.iter
    (fun wire ->
      Bytes.set_int64_le buf 8 wire;
      Alcotest.check_raises
        (Printf.sprintf "wire req_id %Lu rejected" wire)
        (Invalid_argument (Printf.sprintf "Codec.decode: req_id %Lu out of range" wire))
        (fun () -> ignore (Codec.decode buf 0)))
    [ Int64.add (Int64.of_int max_int) 1L; -1L; Int64.min_int ];
  Alcotest.check_raises "negative req_id refused on encode"
    (Invalid_argument "Codec: req_id out of range") (fun () ->
      ignore (Codec.encode (Message.Barrier_resp { req_id = -1 })))

(* LBAs are immediate ints too: the 64-bit wire field round-trips
   [0, max_int] for reads and writes, decode rejects anything outside
   with a typed error, and encode refuses a negative LBA.  A register
   message's packed SLO uses the same field and stays unchecked. *)
let test_lba_boundary () =
  List.iter
    (fun lba ->
      List.iter
        (fun msg ->
          let decoded, _ = Codec.decode (Codec.encode msg) 0 in
          Alcotest.check msg_testable (Printf.sprintf "lba %d roundtrips" lba) msg decoded)
        [
          Message.Read_req { handle = 1; req_id = 3; lba; len = 4096 };
          Message.Write_req { handle = 1; req_id = 3; lba; len = 512 };
        ])
    [ 0; 1; max_int ];
  List.iter
    (fun msg ->
      let buf = Codec.encode msg in
      List.iter
        (fun wire ->
          Bytes.set_int64_le buf 16 wire;
          Alcotest.check_raises
            (Printf.sprintf "wire lba %Lu rejected" wire)
            (Invalid_argument (Printf.sprintf "Codec.decode: lba %Lu out of range" wire))
            (fun () -> ignore (Codec.decode buf 0)))
        [ Int64.add (Int64.of_int max_int) 1L; -1L; Int64.min_int ])
    [
      Message.Read_req { handle = 1; req_id = 3; lba = 0; len = 4096 };
      Message.Write_req { handle = 1; req_id = 3; lba = 0; len = 512 };
    ];
  Alcotest.check_raises "negative lba refused on encode" (Invalid_argument "Codec: lba out of range")
    (fun () -> ignore (Codec.encode (Message.Read_req { handle = 1; req_id = 3; lba = -1; len = 4096 })));
  let slo =
    { Message.latency_us = 500; iops = 100_000; read_pct = 80; latency_critical = true }
  in
  let reg = Message.Register { tenant = 4; slo } in
  Alcotest.check msg_testable "register's packed SLO sets the top bit" reg
    (fst (Codec.decode (Codec.encode reg) 0))

let test_framer_whole_messages () =
  let f = Framer.create () in
  List.iter
    (fun msg ->
      let b = Codec.encode msg in
      Framer.feed f b ~off:0 ~len:(Bytes.length b))
    sample_messages;
  let out = Framer.pop_all f in
  Alcotest.(check (list msg_testable)) "all messages in order" sample_messages out;
  Alcotest.(check int) "nothing buffered" 0 (Framer.buffered f)

let test_framer_byte_by_byte () =
  let f = Framer.create () in
  let stream = Bytes.concat Bytes.empty (List.map Codec.encode sample_messages) in
  let out = ref [] in
  Bytes.iteri
    (fun i _ ->
      Framer.feed f stream ~off:i ~len:1;
      match Framer.pop f with Some m -> out := m :: !out | None -> ())
    stream;
  Alcotest.(check (list msg_testable)) "byte-at-a-time framing" sample_messages (List.rev !out)

let test_framer_partial_payload () =
  let f = Framer.create () in
  let msg = Message.Write_req { handle = 1; req_id = 1; lba = 0; len = 4096 } in
  let b = Codec.encode msg in
  (* Header plus half the payload: not yet a message. *)
  Framer.feed f b ~off:0 ~len:(Codec.header_size + 2048);
  Alcotest.(check bool) "incomplete" true (Framer.pop f = None);
  Framer.feed f b ~off:(Codec.header_size + 2048) ~len:2048;
  (match Framer.pop f with
  | Some m -> Alcotest.check msg_testable "completes" msg m
  | None -> Alcotest.fail "message should be complete");
  Alcotest.(check bool) "drained" true (Framer.pop f = None)

let test_framer_bad_slice () =
  let f = Framer.create () in
  Alcotest.check_raises "bad slice" (Invalid_argument "Framer.feed: bad slice") (fun () ->
      Framer.feed f (Bytes.create 4) ~off:2 ~len:10)

let gen_msg =
  QCheck.Gen.(
    let status = oneofl [ Message.Ok; Message.Denied; Message.No_capacity; Message.Bad_request; Message.Out_of_range ] in
    let id = int_range 0 0x3FFFFFFF in
    let small = int_range 0 0xFFFFFF in
    oneof
      [
        map
          (fun (t, (l, i, r, lc)) ->
            Message.Register
              { tenant = t; slo = { latency_us = l; iops = i; read_pct = r; latency_critical = lc } })
          (pair (int_range 0 10_000) (quad (int_range 0 100_000) small (int_range 0 100) bool));
        map (fun h -> Message.Unregister { handle = h }) (int_range 0 10_000);
        map
          (fun (h, (id, lba, len)) -> Message.Read_req { handle = h; req_id = id; lba; len })
          (pair (int_range 0 10_000) (triple id small (int_range 1 65536)));
        map
          (fun (h, (id, lba, len)) -> Message.Write_req { handle = h; req_id = id; lba; len })
          (pair (int_range 0 10_000) (triple id small (int_range 1 65536)));
        map (fun (id, s) -> Message.Write_resp { req_id = id; status = s }) (pair id status);
        map
          (fun (id, s, len) -> Message.Read_resp { req_id = id; status = s; len })
          (triple id status (int_range 0 65536));
      ])

let arb_msg = QCheck.make ~print:(Format.asprintf "%a" Message.pp) gen_msg

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrips arbitrary messages" ~count:500 arb_msg (fun msg ->
      let buf = Codec.encode msg in
      let decoded, consumed = Codec.decode buf 0 in
      Message.equal msg decoded && consumed = Bytes.length buf)

let prop_framer_random_chunks =
  QCheck.Test.make ~name:"framer reassembles under random chunking" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 20) arb_msg) (int_range 1 200))
    (fun (msgs, chunk_size) ->
      let stream = Bytes.concat Bytes.empty (List.map Codec.encode msgs) in
      let f = Framer.create () in
      let out = ref [] in
      let n = Bytes.length stream in
      let rec feed off =
        if off < n then begin
          let len = min chunk_size (n - off) in
          Framer.feed f stream ~off ~len;
          out := List.rev_append (Framer.pop_all f) !out;
          feed (off + len)
        end
      in
      feed 0;
      List.rev !out = msgs)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "codec",
      [
        Alcotest.test_case "roundtrip all message kinds" `Quick test_roundtrip_all;
        Alcotest.test_case "payload sizing" `Quick test_payload_sizes;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "bad opcode" `Quick test_bad_opcode;
        Alcotest.test_case "short buffer" `Quick test_short_buffer;
        Alcotest.test_case "encode at offset" `Quick test_encode_into_offset;
        Alcotest.test_case "req_id boundary" `Quick test_req_id_boundary;
        Alcotest.test_case "lba boundary" `Quick test_lba_boundary;
        qcheck prop_codec_roundtrip;
      ] );
    ( "framer",
      [
        Alcotest.test_case "whole messages" `Quick test_framer_whole_messages;
        Alcotest.test_case "byte-by-byte" `Quick test_framer_byte_by_byte;
        Alcotest.test_case "partial payload" `Quick test_framer_partial_payload;
        Alcotest.test_case "bad slice" `Quick test_framer_bad_slice;
        qcheck prop_framer_random_chunks;
      ] );
  ]
