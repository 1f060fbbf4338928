(* Tests for the telemetry layer: span ring wraparound and packing,
   disabled-path no-ops, the flight-ring decision log, Chrome trace JSON
   well-formedness (via a minimal JSON parser), the
   components-tile-end-to-end invariant, and byte-identical telemetry
   reports under Runner domain parallelism. *)

open Reflex_engine
open Reflex_client
open Reflex_telemetry
open Reflex_experiments

(* ------------------------------------------------------------------ *)
(* Span ring                                                          *)
(* ------------------------------------------------------------------ *)

let test_span_ring_wraparound () =
  let t = Telemetry.create ~span_capacity:8 () in
  for i = 0 to 19 do
    Telemetry.span t ~now:(Time.ns (i * 10)) ~tenant:1 ~req_id:i
      Telemetry.Stage.Client_submit
  done;
  Alcotest.(check int) "retained" 8 (Telemetry.span_count t);
  Alcotest.(check int) "recorded" 20 (Telemetry.spans_recorded t);
  Alcotest.(check int) "dropped" 12 (Telemetry.spans_dropped t);
  (* Oldest-first iteration over the retained window must yield exactly
     the 8 newest spans: req_ids 12..19. *)
  let seen = ref [] in
  Telemetry.iter_spans t (fun ~time:_ ~tenant:_ ~req_id ~stage:_ ->
      seen := req_id :: !seen);
  Alcotest.(check (list int)) "newest kept, oldest-first" [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.rev !seen)

(* Spans are packed into Flight records (a = req_id, b = tenant lsl 3 lor
   stage); a wide tenant id and a request id near [max_int] must come back
   unchanged, with their stage. *)
let test_span_roundtrip () =
  let t = Telemetry.create ~span_capacity:16 () in
  let tenant = (1 lsl 20) + 5 and req_id = max_int - 1 in
  Telemetry.span t ~now:(Time.us 3) ~tenant ~req_id Telemetry.Stage.Nvme_complete;
  Telemetry.span t ~now:(Time.us 4) ~tenant:0 ~req_id:max_int Telemetry.Stage.Client_complete;
  let seen = ref [] in
  Telemetry.iter_spans t (fun ~time ~tenant ~req_id ~stage ->
      seen :=
        Printf.sprintf "%d %d %d %s" (time :> int) tenant req_id (Telemetry.Stage.name stage)
        :: !seen);
  Alcotest.(check (list string)) "spans round-trip"
    [
      Printf.sprintf "3000 %d %d nvme_complete" tenant req_id;
      Printf.sprintf "4000 0 %d client_complete" max_int;
    ]
    (List.rev !seen)

let test_disabled_noop () =
  let t = Telemetry.disabled in
  Telemetry.span t ~now:Time.zero ~tenant:1 ~req_id:1 Telemetry.Stage.Server_rx;
  let c = Telemetry.counter t "x/y" in
  Telemetry.incr c;
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  Alcotest.(check int) "no spans" 0 (Telemetry.span_count t);
  Alcotest.(check (list string)) "no metrics" [] (Telemetry.metric_names t)

(* ------------------------------------------------------------------ *)
(* A small traced world                                               *)
(* ------------------------------------------------------------------ *)

(* One LC tenant + one BE write flood on one core, traced end to end.
   Small enough for unit tests, busy enough that queueing and grants
   actually happen. *)
let traced_world_with ?(rate = 30_000.0) telemetry =
  let w = Common.make_reflex ~n_threads:1 ~telemetry () in
  let sim = w.Common.sim in
  let until = Time.add (Sim.now sim) (Time.sec 1) in
  let lc =
    Common.client_of w ~slo:(Common.lc_slo ~latency_us:500 ~iops:50_000 ~read_pct:80) ~tenant:1 ()
  in
  let g_lc =
    Load_gen.open_loop sim ~client:lc ~pacing:`Cbr ~mix:`Deterministic ~rate ~read_ratio:0.8
      ~bytes:4096 ~until ~seed:7L ()
  in
  let be = Common.client_of w ~slo:(Common.be_slo ~read_pct:10 ()) ~tenant:101 () in
  let g_be =
    Load_gen.closed_loop sim ~client:be ~depth:16 ~read_ratio:0.1 ~bytes:4096 ~until ~seed:11L ()
  in
  Common.measure_generators sim [ g_lc; g_be ] ~warmup:(Time.ms 20) ~window:(Time.ms 60);
  w

let traced_world ?rate () = (traced_world_with ?rate (Telemetry.create ())).Common.telemetry

(* The decision log is a view over the flight ring: the scheduler writes
   each decision once, there and nowhere else. *)
let decision_kinds =
  Reflex_obs.Flight.Kind.[ Throttle; Deficit; Donate; Bucket_take; Idle_drain; Bucket_reset ]

(* Checks one traced world at LC load [rate]; returns its per-kind record
   counts in [decision_kinds] order. *)
let check_decision_log ~rate =
  let module Kind = Reflex_obs.Flight.Kind in
  let telemetry = Telemetry.create () in
  let fl = Reflex_obs.Flight.create ~capacity:(1 lsl 18) () in
  Telemetry.set_flight telemetry fl;
  let w = traced_world_with ~rate telemetry in
  Alcotest.(check int) "flight ring never wrapped" 0 (Reflex_obs.Flight.dropped fl);
  let count kind =
    let n = ref 0 in
    Reflex_obs.Flight.iter fl (fun ~time:_ ~kind:k ~a:_ ~b:_ ~v:_ -> if k = kind then incr n);
    !n
  in
  Alcotest.(check int) "one Deficit record per control-plane notification"
    (Reflex_core.Server.deficit_notifications w.Common.server ~tenant:1)
    (count Kind.Deficit);
  let resets =
    match Telemetry.find_metric telemetry "qos/global_bucket/resets" with
    | Some (`Gauge v) -> int_of_float v
    | _ -> Alcotest.fail "no bucket-reset gauge"
  in
  Alcotest.(check int) "one Bucket_reset record per bucket reset" resets
    (count Kind.Bucket_reset);
  Alcotest.(check int) "spans stay in their own ring" 0 (count Kind.Stage);
  (* The full report lists every decision record once. *)
  let listed =
    Telemetry.decisions_report ~limit:max_int telemetry
    |> String.split_on_char '\n' |> List.tl
    |> List.filter_map (fun l ->
           match List.filter (( <> ) "") (String.split_on_char ' ' l) with
           | _time :: _thread :: _tenant :: kind :: _ -> Some kind
           | _ -> None)
  in
  let counts = List.map count decision_kinds in
  List.iter2
    (fun k n ->
      let name = Kind.name k in
      Alcotest.(check int) (name ^ " listed once per record") n
        (List.length (List.filter (String.equal name) listed)))
    decision_kinds counts;
  Alcotest.(check int) "no other report lines" (List.fold_left ( + ) 0 counts)
    (List.length listed);
  counts

let test_decision_log () =
  (* Below its 50K reservation the LC tenant donates; above it, it is
     throttled into deficit.  Together the two worlds make every kind. *)
  let under = check_decision_log ~rate:30_000.0 in
  let over = check_decision_log ~rate:70_000.0 in
  List.iter2
    (fun k n -> Alcotest.(check bool) (Reflex_obs.Flight.Kind.name k ^ " recorded") true (n > 0))
    decision_kinds (List.map2 ( + ) under over);
  (* Without a flight ring the log is empty. *)
  Alcotest.(check string) "no flight ring, empty log"
    "== scheduler decision log (0 retained, showing last 0) ==\n"
    (Telemetry.decisions_report (traced_world ()))

let test_components_tile () =
  let tel = traced_world () in
  let bds = Trace_export.breakdowns tel in
  Alcotest.(check bool) "some complete requests" true (List.length bds > 100);
  List.iter
    (fun b ->
      let sum = Array.fold_left Time.add Time.zero b.Trace_export.b_components in
      Alcotest.(check int)
        (Printf.sprintf "components sum to total (t%d req %d)" b.Trace_export.b_tenant
           b.Trace_export.b_req_id)
        (b.Trace_export.b_total :> int) (sum :> int);
      Array.iter
        (fun c -> Alcotest.(check bool) "component non-negative" true Time.(c >= zero))
        b.Trace_export.b_components)
    bds

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser (validation only)                              *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n then
        match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
    in
    let expect c =
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | 'u' ->
            advance ();
            for _ = 1 to 4 do
              (match peek () with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
              | _ -> raise (Bad "bad \\u escape"));
              advance ()
            done;
            Buffer.add_char b '?'
          | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
          go ()
        | c -> Buffer.add_char b c; advance (); go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let sub = String.sub s start (!pos - start) in
      match float_of_string_opt sub with
      | Some f -> f
      | None -> raise (Bad ("bad number: " ^ sub))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> Str (parse_string ())
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
          in
          members []
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); items (v :: acc)
            | ']' -> advance (); List (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
          in
          items []
      | 't' -> pos := !pos + 4; Bool true
      | 'f' -> pos := !pos + 5; Bool false
      | 'n' -> pos := !pos + 4; Null
      | _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing garbage at %d" !pos));
    v

  let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

let test_chrome_json_roundtrip () =
  let tel = traced_world () in
  let json = Trace_export.to_chrome_json tel in
  let v =
    try Json.parse json with Json.Bad m -> Alcotest.failf "trace JSON did not parse: %s" m
  in
  (match Json.mem "displayTimeUnit" v with
  | Some (Json.Str _) -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit");
  let events =
    match Json.mem "traceEvents" v with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let n_complete = List.length (Trace_export.breakdowns tel) in
  let xs =
    List.filter (fun e -> Json.mem "ph" e = Some (Json.Str "X")) events
  in
  Alcotest.(check int) "7 duration events per complete request"
    (n_complete * Telemetry.Stage.component_count)
    (List.length xs);
  (* Every event carries the required trace_event fields with sane types. *)
  List.iter
    (fun e ->
      (match Json.mem "name" e with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "event missing name");
      (match Json.mem "ts" e with
      | Some (Json.Num ts) -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
      | _ -> Alcotest.fail "event missing ts");
      match (Json.mem "pid" e, Json.mem "tid" e) with
      | Some (Json.Num _), Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "event missing pid/tid")
    events;
  (* Duration events of one request tile its interval: per (pid, tid),
     sum(dur) = max(ts+dur) - min(ts). *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match (Json.mem "pid" e, Json.mem "tid" e, Json.mem "ts" e, Json.mem "dur" e) with
      | Some (Json.Num pid), Some (Json.Num tid), Some (Json.Num ts), Some (Json.Num dur) ->
        let k = (pid, tid) in
        let sum, lo, hi =
          match Hashtbl.find_opt tbl k with Some x -> x | None -> (0.0, infinity, neg_infinity)
        in
        Hashtbl.replace tbl k (sum +. dur, Float.min lo ts, Float.max hi (ts +. dur))
      | _ -> ())
    xs;
  Hashtbl.iter
    (fun (pid, tid) (sum, lo, hi) ->
      if Float.abs (sum -. (hi -. lo)) > 1e-3 then
        Alcotest.failf "request (pid=%g,tid=%g): components %.3fus <> span %.3fus" pid tid sum
          (hi -. lo))
    tbl

(* ------------------------------------------------------------------ *)
(* Determinism under Runner parallelism                               *)
(* ------------------------------------------------------------------ *)

(* Each sweep point builds its own world with its own telemetry, so the
   full observability output (sampled metrics + component summary + SLO
   audit) must be byte-identical between a parallel and a serial run. *)
let test_parallel_determinism () =
  let point rate =
    let tel = traced_world ~rate () in
    Telemetry.metrics_report tel ^ Trace_export.component_report tel ^ Slo_audit.report tel
  in
  let rates = [ 20_000.0; 35_000.0; 50_000.0 ] in
  let serial = Runner.map ~jobs:1 point rates in
  let parallel = Runner.map ~jobs:2 point rates in
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check string) (Printf.sprintf "point %d byte-identical" i) s p)
    (List.combine serial parallel)

(* The armed span-ring record stores an immediate time and request id:
   no box and no allocation per span. *)
let test_span_record_allocation_free () =
  let t = Telemetry.create ~span_capacity:1024 () in
  let words =
    Test_util.minor_words (fun () ->
        for i = 1 to 10_000 do
          Telemetry.span t ~now:(Time.ns i) ~tenant:3 ~req_id:i Telemetry.Stage.Server_rx
        done)
  in
  Alcotest.(check int) "recorded" 10_000 (Telemetry.spans_recorded t);
  Alcotest.(check (float 0.0)) "minor words for 10k armed spans" 0.0 words

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "span ring wraparound keeps newest" `Quick test_span_ring_wraparound;
        Alcotest.test_case "span records round-trip" `Quick test_span_roundtrip;
        Alcotest.test_case "decision log is the flight ring" `Slow test_decision_log;
        Alcotest.test_case "disabled instance is inert" `Quick test_disabled_noop;
        Alcotest.test_case "span record allocates nothing" `Quick test_span_record_allocation_free;
        Alcotest.test_case "components tile end-to-end latency" `Slow test_components_tile;
        Alcotest.test_case "chrome trace JSON round-trips" `Slow test_chrome_json_roundtrip;
        Alcotest.test_case "parallel runs byte-identical to serial" `Slow
          test_parallel_determinism;
      ] );
  ]
