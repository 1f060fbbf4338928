(** Phase-structured application I/O engine.

    The Figure-7 applications (FlashX graph analytics, RocksDB) are
    modelled as sequences of I/O phases over an {!Access_path}:

    - a {e parallel} phase issues I/O at the rate the application's
      compute can generate it (deep asynchronous I/O, as in SAFS or a
      threaded db_bench), with a bounded outstanding window: when the
      path cannot keep up, arrivals stall and the phase becomes
      throughput-bound — this is what penalizes iSCSI's ~70K IOPS/core;
    - a {e serial} phase issues dependent I/Os one at a time (pointer
      chasing, WAL appends), making end-to-end time latency-bound.

    End-to-end runtime is what the experiment reports; slowdown versus
    the local path reproduces Figures 7b/7c. *)

open Reflex_engine
open Reflex_flash

type phase =
  | Parallel of {
      ios : int;
      demand_iops : float;  (** rate the app generates I/O when not stalled *)
      window : int;  (** max outstanding I/Os *)
      read_ratio : float;
      bytes : int;
    }
  | Serial of { ios : int; think : Time.t; read_ratio : float; bytes : int }

(** [run sim path phases k] executes the phases back-to-back and passes
    the total elapsed time to [k]. *)
val run :
  Sim.t ->
  Access_path.t ->
  ?seed:int64 ->
  ?lba_hi:int ->
  phase list ->
  (elapsed:Time.t -> unit) ->
  unit

(** Total I/Os across phases, for sanity checks. *)
val total_ios : phase list -> int

val kind_of : Prng.t -> read_ratio:float -> Io_op.kind
