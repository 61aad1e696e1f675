(* Observability harness: prove the fleet's telemetry plane free when
   disabled and load-bearing when enabled. One hostile fleet scenario is
   run twice — registries off, then on — and the model-cycle totals must
   be bit-identical (trace ids ride the migration wire unconditionally,
   so enabling telemetry changes no wire byte and hence no charged
   cycle). The enabled run must then actually observe the scenario:
   every committed failover stitches into one cross-host causal trace,
   the burn-rate monitor pages, and a fault-free replay stays silent.
   See observe.mli. *)

type report = {
  o_metrics : (string * Report.t) list;
  o_traces : Telemetry.Causal.trace list;
  o_chrome_json : string;
  o_failures : string list;
}

let run ?(seed = 7) () =
  let fails = ref [] in
  let fail m = fails := m :: !fails in
  let hplan () = Fleet.fleet_plan ~seed in
  let off = Fleet.run_once ~telemetry:false ~plan:(hplan ()) ~seed () in
  let on_ = Fleet.run_once ~telemetry:true ~plan:(hplan ()) ~seed () in
  (* the zero-overhead proof: same plan, same seed, registries off vs on
     — every charged cycle must match, and so must the overlay's routing
     decisions (the gauge feed and its fallback read the same values) *)
  let delta = on_.Fleet.r_cycles - off.Fleet.r_cycles in
  if delta <> 0 then
    fail
      (Printf.sprintf "telemetry is not free: %d model cycles off, %d on (%+d)"
         off.Fleet.r_cycles on_.Fleet.r_cycles delta);
  if Telemetry.samples off.Fleet.r_tel + Telemetry.span_count off.Fleet.r_tel > 0
  then fail "null registry recorded samples";
  if Fleet.goodput off.Fleet.r_sup <> Fleet.goodput on_.Fleet.r_sup then
    fail
      (Printf.sprintf
         "telemetry perturbed routing: supervised goodput %d off, %d on"
         (Fleet.goodput off.Fleet.r_sup)
         (Fleet.goodput on_.Fleet.r_sup));
  (* the enabled run must have seen something *)
  if Telemetry.samples on_.Fleet.r_tel = 0 then
    fail "enabled run recorded no fleet metric samples";
  if Telemetry.span_count on_.Fleet.r_tel = 0 then
    fail "enabled run recorded no causal spans";
  (match on_.Fleet.r_crash with
  | Some e -> fail ("hostile run escaped the harness: " ^ e)
  | None -> ());
  List.iter (fun f -> fail ("hostile: " ^ f)) on_.Fleet.r_mech_failures;
  if on_.Fleet.r_failovers > 0 && on_.Fleet.r_stitched < 1 then
    fail "a failover committed but no cross-host trace stitched";
  let sup = on_.Fleet.r_sup and unsup = on_.Fleet.r_unsup in
  let fast = sup.Fleet.sim_fast_alerts + unsup.Fleet.sim_fast_alerts in
  let slow = sup.Fleet.sim_slow_alerts + unsup.Fleet.sim_slow_alerts in
  if on_.Fleet.r_deaths > 0 && fast + slow = 0 then
    fail "a host died but no burn-rate alert fired";
  (* a fault-free fleet must never page *)
  let ff = Fleet.run_once ~plan:(Inject.plan ~seed []) ~seed () in
  let ff_alerts =
    ff.Fleet.r_sup.Fleet.sim_fast_alerts + ff.Fleet.r_sup.Fleet.sim_slow_alerts
    + ff.Fleet.r_unsup.Fleet.sim_fast_alerts
    + ff.Fleet.r_unsup.Fleet.sim_slow_alerts
  in
  if ff_alerts > 0 then
    fail (Printf.sprintf "fault-free fleet fired %d burn-rate alert(s)" ff_alerts);
  {
    o_metrics =
      [ ("seed", Report.Int seed);
        ("cycles_registry_off", Report.Int off.Fleet.r_cycles);
        ("cycles_registry_on", Report.Int on_.Fleet.r_cycles);
        ("delta_cycles", Report.Int delta);
        ("zero_model_cycle_overhead", Report.Bool (delta = 0));
        ( "samples",
          Report.Int
            (Telemetry.samples on_.Fleet.r_tel + sup.Fleet.sim_samples
           + unsup.Fleet.sim_samples) );
        ("spans", Report.Int (Telemetry.span_count on_.Fleet.r_tel));
        ("failovers", Report.Int on_.Fleet.r_failovers);
        ("stitched_traces", Report.Int on_.Fleet.r_stitched);
        ("burn_alerts_fast", Report.Int fast);
        ("burn_alerts_slow", Report.Int slow);
        ("worst_burn", Report.Float (max sup.Fleet.sim_worst_burn unsup.Fleet.sim_worst_burn));
        ("sup_timeline", Fleet.timeline_json sup.Fleet.sim_timeline);
        ("unsup_timeline", Fleet.timeline_json unsup.Fleet.sim_timeline) ];
    o_traces = Telemetry.Causal.stitch (Telemetry.spans on_.Fleet.r_tel);
    o_chrome_json = Trace.to_chrome_fleet on_.Fleet.r_host_traces;
    o_failures = List.rev !fails;
  }

let pp_report ppf r =
  Format.fprintf ppf "telemetry:@.%a" Scenario.pp_metrics r.o_metrics;
  List.iter
    (fun tr ->
      if List.length tr.Telemetry.Causal.tr_hosts >= 2 then
        Format.fprintf ppf "    %a@." Telemetry.Causal.pp_trace tr)
    r.o_traces
