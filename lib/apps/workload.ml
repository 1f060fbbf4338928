open Reflex_engine
open Reflex_flash

type phase =
  | Parallel of {
      ios : int;
      demand_iops : float;
      window : int;
      read_ratio : float;
      bytes : int;
    }
  | Serial of { ios : int; think : Time.t; read_ratio : float; bytes : int }

let total_ios phases =
  List.fold_left
    (fun acc -> function Parallel { ios; _ } -> acc + ios | Serial { ios; _ } -> acc + ios)
    0 phases

let kind_of prng ~read_ratio = if Prng.bool prng read_ratio then Io_op.Read else Io_op.Write

let run sim path ?(seed = 0xA995_0001L) ?(lba_hi = 8_000_000) phases k =
  let prng = Prng.create seed in
  let started = Sim.now sim in
  let random_lba () = Prng.int prng lba_hi in
  let rec run_phase = function
    | [] -> k ~elapsed:(Time.diff (Sim.now sim) started)
    | Serial { ios; think; read_ratio; bytes } :: rest ->
      let remaining = ref ios in
      let rec next () =
        if !remaining = 0 then run_phase rest
        else begin
          decr remaining;
          Access_path.submit path ~kind:(kind_of prng ~read_ratio) ~lba:(random_lba ()) ~bytes
            (fun ~latency:_ ->
              if Time.(think > Time.zero) then ignore (Sim.after sim think next) else next ())
        end
      in
      next ()
    | Parallel { ios; demand_iops; window; read_ratio; bytes } :: rest ->
      if demand_iops <= 0.0 then invalid_arg "Workload: demand_iops";
      let to_issue = ref ios and outstanding = ref 0 and completed = ref 0 in
      let gap = Time.of_float_ns (1e9 /. demand_iops) in
      let stalled = ref false in
      let rec on_complete ~latency:_ =
        decr outstanding;
        incr completed;
        if !completed = ios then run_phase rest
        else if !stalled then begin
          (* Compute was waiting for a slot: resume issuing now. *)
          stalled := false;
          issue ()
        end
      and issue () =
        if !to_issue > 0 then begin
          if !outstanding >= window then stalled := true
          else begin
            decr to_issue;
            incr outstanding;
            Access_path.submit path ~kind:(kind_of prng ~read_ratio) ~lba:(random_lba ()) ~bytes
              on_complete;
            ignore (Sim.after sim gap issue)
          end
        end
      in
      issue ()
  in
  run_phase phases
