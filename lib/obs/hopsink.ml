open Reflex_engine

(* A hop-stamp sink: the thinnest possible bridge between the per-server
   dataplane (lib/core, which must not know about the rack) and a rack-level
   trace recorder (lib/rack_obs, which must not be a lib/core dependency).
   The dataplane calls [stamp] at its NVMe submit/complete instants; an
   armed sink correlates the (tenant, req) pair back to a rack trace slot.
   The [on] bool is immutable and read once per call site, mirroring the
   flight recorder's single-guard discipline. *)

type t = {
  on : bool;
  stamp : tenant:int -> req:int -> hop:int -> now:Time.t -> unit;
}

let null = { on = false; stamp = (fun ~tenant:_ ~req:_ ~hop:_ ~now:_ -> ()) }
let make stamp = { on = true; stamp }
let enabled t = t.on [@@inline]

let stamp t ~tenant ~req ~hop ~now =
  if t.on then t.stamp ~tenant ~req ~hop ~now
[@@inline]
