open Reflex_engine
module Flight = Reflex_obs.Flight

(* Rack timeline rollup: merge N per-server flight-ring snapshots plus
   the rack ring (Balance/Migrate records) into one time-ordered view.

   Lane assignment is fixed: pid 0 is the rack lane, pid i+1 is server i.
   The merge order is total and deterministic: events sort by
   (time, lane, in-lane index) — each snapshot is already oldest-first,
   so in-lane order is preserved and cross-lane ties break toward the
   rack lane then ascending server index.  Rendering the same snapshots
   twice is byte-identical by construction. *)

let lane_name lane = if lane = 0 then "rack" else Printf.sprintf "rack-%02d" (lane - 1)

let hop_of_b b = b land 7
let tenant_of_b b = b lsr 3

let ts = Reflex_obs.Flight_dump.us

(* One merged record: (time, lane, in-lane index, record fields). *)
type ev = { e_time : Time.t; e_lane : int; e_idx : int; e_kind : int; e_a : int; e_b : int; e_v : float }

let collect ~server_snaps ~rack_snap =
  let out = ref [] in
  let add lane (snap : Flight.snapshot) =
    let n = Flight.snap_length snap in
    for i = n - 1 downto 0 do
      out :=
        {
          e_time = snap.Flight.s_times.(i);
          e_lane = lane;
          e_idx = i;
          e_kind = snap.Flight.s_kinds.(i);
          e_a = snap.Flight.s_a.(i);
          e_b = snap.Flight.s_b.(i);
          e_v = snap.Flight.s_v.(i);
        }
        :: !out
    done
  in
  Array.iteri (fun i snap -> add (i + 1) snap) server_snaps;
  add 0 rack_snap;
  List.stable_sort
    (fun a b ->
      let c = Time.compare a.e_time b.e_time in
      if c <> 0 then c
      else
        let c = compare a.e_lane b.e_lane in
        if c <> 0 then c else compare a.e_idx b.e_idx)
    !out

(* Chrome trace event for one record.  Hop records become instants in
   their server lane (tid = stamp index, so the five stamp points of a
   request stack as five tracks); Balance/Migrate live in the rack lane. *)
let render_ev buf e =
  let kind = Flight.Kind.of_int e.e_kind in
  match kind with
  | Flight.Kind.Hop ->
    Printf.bprintf buf
      "{\"name\":\"hop/%s\",\"cat\":\"rack\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"rid\":%d,\"tenant\":%d,\"v_us\":%g}}"
      (Rack_obs.stamp_name (hop_of_b e.e_b))
      (ts e.e_time) e.e_lane (hop_of_b e.e_b) e.e_a (tenant_of_b e.e_b) e.e_v
  | Flight.Kind.Balance ->
    Printf.bprintf buf
      "{\"name\":\"balance\",\"cat\":\"rack\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":0,\"args\":{\"server\":%d,\"policy\":%d,\"depth\":%g}}"
      (ts e.e_time) e.e_lane e.e_a e.e_b e.e_v
  | Flight.Kind.Migrate ->
    Printf.bprintf buf
      "{\"name\":\"migrate\",\"cat\":\"rack\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%s,\"pid\":%d,\"tid\":0,\"args\":{\"tenant\":%d,\"dst\":%d,\"src\":%g}}"
      (ts e.e_time) e.e_lane e.e_a e.e_b e.e_v
  | _ ->
    Printf.bprintf buf
      "{\"name\":\"%s\",\"cat\":\"rack\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":0,\"args\":{\"a\":%d,\"b\":%d,\"v\":%g}}"
      (Flight.Kind.name kind) (ts e.e_time) e.e_lane e.e_a e.e_b e.e_v

(* Follows_from flow arrows: every Migrate record in the rack lane links
   to the first post-migration pick (hop 0) of that tenant in the
   destination server's lane — the migration is the causal parent of the
   dispatches it redirected. *)
let flows ~server_snaps ~rack_snap =
  let out = ref [] in
  let n = Flight.snap_length rack_snap in
  let flow_id = ref 0 in
  for i = 0 to n - 1 do
    if Flight.Kind.of_int rack_snap.Flight.s_kinds.(i) = Flight.Kind.Migrate then begin
      let mt = rack_snap.Flight.s_times.(i) in
      let tenant = rack_snap.Flight.s_a.(i) in
      let dst = rack_snap.Flight.s_b.(i) in
      if dst >= 0 && dst < Array.length server_snaps then begin
        let snap = server_snaps.(dst) in
        let m = Flight.snap_length snap in
        let target = ref None in
        (let j = ref 0 in
         while !target = None && !j < m do
           let b = snap.Flight.s_b.(!j) in
           if
             Flight.Kind.of_int snap.Flight.s_kinds.(!j) = Flight.Kind.Hop
             && hop_of_b b = 0 && tenant_of_b b = tenant
             && Time.(snap.Flight.s_times.(!j) >= mt)
           then target := Some !j;
           incr j
         done);
        match !target with
        | Some j ->
          incr flow_id;
          out :=
            (!flow_id, mt, dst + 1, snap.Flight.s_times.(j), snap.Flight.s_a.(j), tenant)
            :: !out
        | None -> ()
      end
    end
  done;
  List.rev !out

let chrome_trace ~server_snaps ~rack_snap =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let emit render =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    render buf
  in
  (* lane naming metadata *)
  for lane = 0 to Array.length server_snaps do
    emit (fun buf ->
        Printf.bprintf buf
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}" lane
          (lane_name lane))
  done;
  List.iter (fun e -> emit (fun buf -> render_ev buf e)) (collect ~server_snaps ~rack_snap);
  List.iter
    (fun (id, mt, dst_lane, pt, rid, tenant) ->
      emit (fun buf ->
          Printf.bprintf buf
            "{\"name\":\"follows_from\",\"cat\":\"rack\",\"ph\":\"s\",\"id\":%d,\"ts\":%s,\"pid\":0,\"tid\":0,\"args\":{\"tenant\":%d}}"
            id (ts mt) tenant);
      emit (fun buf ->
          Printf.bprintf buf
            "{\"name\":\"follows_from\",\"cat\":\"rack\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":0,\"args\":{\"rid\":%d}}"
            id (ts pt) dst_lane rid))
    (flows ~server_snaps ~rack_snap);
  Buffer.add_string buf "\n],\n\"lanes\":[\n";
  (* Per-lane loss accounting off the per-kind snapshot counters
     (wraparound names exactly what each lane lost). *)
  let lane_entry buf lane (snap : Flight.snapshot) =
    Printf.bprintf buf
      "{\"lane\":\"%s\",\"events\":%d,\"total\":%d,\"dropped\":%d,\"hop_written\":%d,\"hop_dropped\":%d,\"balance_written\":%d,\"migrate_written\":%d}"
      (lane_name lane) (Flight.snap_length snap) snap.Flight.snap_total
      snap.Flight.snap_dropped
      (Flight.snap_kind_written snap Flight.Kind.Hop)
      (Flight.snap_kind_dropped snap Flight.Kind.Hop)
      (Flight.snap_kind_written snap Flight.Kind.Balance)
      (Flight.snap_kind_written snap Flight.Kind.Migrate)
  in
  lane_entry buf 0 rack_snap;
  Array.iteri
    (fun i snap ->
      Buffer.add_string buf ",\n";
      lane_entry buf (i + 1) snap)
    server_snaps;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* Text stitching of the causal span trees: every traced request id seen
   in the server lanes, its hop chain in stamp order, and the
   Follows_from migration parent when one precedes the pick.  The
   ordering is (rid asc), so two runs agree byte-for-byte exactly when
   they traced the same requests the same way. *)
let stitch ~server_snaps ~rack_snap =
  let buf = Buffer.create 4096 in
  (* rid -> (lane, tenant, hops as (stamp, time, v) in record order) *)
  let tbl = Hashtbl.create 256 in
  let rids = ref [] in
  Array.iteri
    (fun srv (snap : Flight.snapshot) ->
      let n = Flight.snap_length snap in
      for i = 0 to n - 1 do
        if Flight.Kind.of_int snap.Flight.s_kinds.(i) = Flight.Kind.Hop then begin
          let rid = snap.Flight.s_a.(i) in
          let b = snap.Flight.s_b.(i) in
          if not (Hashtbl.mem tbl rid) then begin
            Hashtbl.add tbl rid (srv, tenant_of_b b, ref []);
            rids := rid :: !rids
          end;
          let _, _, hops = Hashtbl.find tbl rid in
          hops := (hop_of_b b, snap.Flight.s_times.(i), snap.Flight.s_v.(i)) :: !hops
        end
      done)
    server_snaps;
  let rids = List.sort compare !rids in
  (* migration list from the rack lane, oldest first *)
  let migs = ref [] in
  (let n = Flight.snap_length rack_snap in
   for i = n - 1 downto 0 do
     if Flight.Kind.of_int rack_snap.Flight.s_kinds.(i) = Flight.Kind.Migrate then
       migs :=
         ( rack_snap.Flight.s_times.(i),
           rack_snap.Flight.s_a.(i),
           int_of_float rack_snap.Flight.s_v.(i),
           rack_snap.Flight.s_b.(i) )
         :: !migs
   done);
  List.iter
    (fun rid ->
      let srv, tenant, hops = Hashtbl.find tbl rid in
      let hops = List.rev !hops in
      let pick_time =
        match hops with (_, time, _) :: _ -> Some time | [] -> None
      in
      Printf.bprintf buf "rid %d tenant %d lane %s\n" rid tenant (lane_name (srv + 1));
      (match pick_time with
      | Some pt -> (
        (* latest migration of this tenant at or before the pick *)
        match
          List.fold_left
            (fun acc (mt, mten, msrc, mdst) ->
              if mten = tenant && Time.(mt <= pt) then Some (mt, msrc, mdst) else acc)
            None (List.rev !migs)
        with
        | Some (mt, msrc, mdst) ->
          Printf.bprintf buf "  follows_from migrate %s -> %s @ %s us\n" (lane_name (msrc + 1))
            (lane_name (mdst + 1)) (ts mt)
        | None -> ())
      | None -> ());
      List.iter
        (fun (stamp, time, v) ->
          Printf.bprintf buf "  child_of %s @ %s us (+%g us)\n" (Rack_obs.stamp_name stamp)
            (ts time) v)
        hops)
    rids;
  Buffer.contents buf

let lane_summary ~server_snaps ~rack_snap =
  let buf = Buffer.create 512 in
  let line lane (snap : Flight.snapshot) =
    Printf.bprintf buf
      "  lane %-8s %5d events in window, %6d written (hop %d/%d retained, %d dropped)\n"
      (lane_name lane) (Flight.snap_length snap) snap.Flight.snap_total
      (Flight.snap_kind_retained snap Flight.Kind.Hop)
      (Flight.snap_kind_written snap Flight.Kind.Hop)
      (Flight.snap_kind_dropped snap Flight.Kind.Hop)
  in
  line 0 rack_snap;
  Array.iteri (fun i snap -> line (i + 1) snap) server_snaps;
  Buffer.contents buf
