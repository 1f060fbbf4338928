open Reflex_engine
open Reflex_client
open Reflex_stats
open Reflex_telemetry

(* The canonical telemetry scenario: the Fig-6-style multi-tenant setup
   (two dataplane threads, two latency-critical tenants with different
   SLOs, two best-effort write floods) run with full lifecycle tracing,
   the metrics registry and a flight ring for the scheduler decision
   log.  This is what `reflex_sim trace` executes: BE writes create die
   contention and token throttling, so the per-request breakdowns and
   the SLO audit have something real to attribute. *)

type tenant_row = {
  tr_tenant : int;
  tr_class : string;
  tr_achieved_kiops : float;
  tr_p95_read_us : float;
}

type result = { telemetry : Telemetry.t; rows : tenant_row list }

let run ?(mode = Common.Quick) () =
  let telemetry = Telemetry.create () in
  Telemetry.set_flight telemetry (Reflex_obs.Flight.create ());
  let w = Common.make_reflex ~n_threads:2 ~telemetry () in
  let sim = w.Common.sim in
  let until = Time.add (Sim.now sim) (Time.sec 10) in
  (* Two LC tenants with distinct SLOs: a tight 200us reservation at
     60K IOPS and a looser 500us one at 30K. *)
  let lc_specs =
    [ (1, 200, 80_000, 100, 60_000.0, 1.0); (2, 500, 40_000, 90, 30_000.0, 0.9) ]
  in
  let lc_gens =
    List.map
      (fun (tenant, latency_us, iops, read_pct, rate, read_ratio) ->
        let client =
          Common.client_of w ~slo:(Common.lc_slo ~latency_us ~iops ~read_pct) ~tenant ()
        in
        ( tenant,
          Load_gen.open_loop sim ~client ~pacing:`Cbr ~mix:`Deterministic ~rate ~read_ratio
            ~bytes:4096 ~until
            ~seed:(Int64.of_int (17 + tenant))
            () ))
      lc_specs
  in
  (* Two BE tenants flooding writes: the source of die contention. *)
  let be_gens =
    List.init 2 (fun i ->
        let tenant = 101 + i in
        let client = Common.client_of w ~slo:(Common.be_slo ~read_pct:10 ()) ~tenant () in
        ( tenant,
          Load_gen.closed_loop sim ~client ~depth:64 ~read_ratio:0.1 ~bytes:4096 ~until
            ~seed:(Int64.of_int (91 + i))
            () ))
  in
  let gens = List.map snd (lc_gens @ be_gens) in
  Common.measure_generators sim gens ~warmup:(Time.ms 50) ~window:(Common.window mode);
  let row kind (tenant, g) =
    {
      tr_tenant = tenant;
      tr_class = kind;
      tr_achieved_kiops = Load_gen.achieved_iops g /. 1e3;
      tr_p95_read_us =
        (if Hdr_histogram.count (Load_gen.reads g) = 0 then 0.0 else Load_gen.p95_read_us g);
    }
  in
  { telemetry; rows = List.map (row "LC") lc_gens @ List.map (row "BE") be_gens }

let to_table rows =
  let t =
    Table.create ~title:"trace scenario: 2 LC tenants + 2 BE write floods on 2 cores"
      ~columns:[ "tenant"; "class"; "achieved KIOPS"; "p95 read (us)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_i r.tr_tenant;
          r.tr_class;
          Table.cell_f r.tr_achieved_kiops;
          Table.cell_f r.tr_p95_read_us;
        ])
    rows;
  t
