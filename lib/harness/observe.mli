(** Observability harness: the telemetry plane's two-sided proof.

    One hostile fleet scenario ({!Fleet.fleet_plan}) is run twice at the
    same seed — per-host registries disabled ({!Telemetry.null}), then
    enabled — and the harness demands:

    - {b free when off} — the charged model-cycle totals of the two runs
      are bit-identical. Request trace ids are minted and ride the
      MIGF1 header whether or not a registry is live, so enabling
      telemetry changes no wire byte, no MAC length, no cycle. The
      overlay's routing must agree too (the gauge feed and its direct
      fallback compute the same occupancy).
    - {b load-bearing when on} — the enabled run actually observed the
      scenario: samples and spans were recorded, every committed
      failover stitched into a complete cross-host causal trace, a dead
      host tripped the burn-rate monitor, and a fault-free replay of
      the same seed paged nobody. *)

type report = {
  o_metrics : (string * Report.t) list;
      (** the proof's numbers, computed once: the BENCH fields and the
          printed summary — cycles off/on and their delta, samples,
          spans, failovers, stitched traces, burn alerts, the hostile
          overlays' timelines *)
  o_traces : Telemetry.Causal.trace list;  (** the enabled run's stitched traces *)
  o_chrome_json : string;
      (** fleet-wide Chrome trace: one pid row per VMM host *)
  o_failures : string list;
}

val run : ?seed:int -> unit -> report
(** Three fleet scenarios (hostile off, hostile on, fault-free) at
    [seed] (default 7, the regression sentinel's pin). *)

val pp_report : Format.formatter -> report -> unit
