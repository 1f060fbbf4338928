(** The canonical telemetry scenario for `reflex_sim trace`: a Fig-6-style
    multi-tenant run (2 cores, 2 LC tenants with 200us/500us SLOs, 2 BE
    write floods) executed with lifecycle tracing, the metrics registry and
    a flight ring that holds the scheduler decision log. *)

open Reflex_telemetry

type tenant_row = {
  tr_tenant : int;
  tr_class : string;  (** "LC" or "BE" *)
  tr_achieved_kiops : float;
  tr_p95_read_us : float;
}

type result = { telemetry : Telemetry.t; rows : tenant_row list }

val run : ?mode:Common.mode -> unit -> result
val to_table : tenant_row list -> Reflex_stats.Table.t
