(** The perf-regression sentinel: replay the E1/E2 workload suite plus the
    key VMM event counters and compare every metric against a committed
    baseline file ([bench/baselines.json]).

    Two metric kinds, two comparison rules:

    - {b Cycles}: deterministic model-cycle measurements (E1 kernel runs,
      E2 cycles-per-op, fileio run totals). Drift beyond a tolerance
      (default ±2%) fails the metric — these are the numbers
      EXPERIMENTS.md's tables are built from, so silent drift is a
      regression even when tests stay green.
    - {b Counter}: event counts (world switches, shadow fills, page-crypto
      ops, …). The stack is deterministic, so these must match {e exactly};
      any delta means the hot path changed shape, not just cost.

    The suite accepts a cost-model override so the sentinel can prove it
    catches an injected cost bump (see test/test_profile.ml). *)

module Micro = Micro
(** Re-export: the E2 syscall microbenchmarks (cycles per op, native vs
    cloaked), shared with the bench harness's E2 table. *)

type kind = Cycles | Counter

type metric = { name : string; kind : kind; value : int }

val default_tolerance_pct : float
(** 2.0 — the cycle-drift budget when the baselines file sets none. *)

val suite : ?cost_model:Machine.Cost.model -> unit -> metric list
(** Run the whole sentinel suite (deterministic, a couple of seconds):
    every E1 kernel native+cloaked, every E2 micro native+cloaked, the
    fileio workload native+cloaked, and the cloaked fileio run's key
    event counters. *)

(** {1 Comparison} *)

type drift = {
  name : string;
  kind : kind;
  baseline : int;
  current : int;
  drift_pct : float;  (** (current - baseline) / baseline * 100 *)
  ok : bool;
}

type outcome = {
  drifts : drift list;       (** one per metric present in both sets *)
  missing : string list;     (** in the baseline but not measured *)
  extra : string list;       (** measured but not in the baseline *)
  tolerance_pct : float;
}

val compare_metrics :
  tolerance_pct:float -> baseline:(string * int) list -> metric list -> outcome

val ok : outcome -> bool
(** No missing, no extra, every drift within its rule. *)

val failures : outcome -> string list
(** Human-readable failure lines: metric name + drift% (or
    missing/extra), empty iff {!ok}. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** The full drift table plus a verdict line. *)

(** {1 Baselines file} *)

val write_baselines : path:string -> tolerance_pct:float -> metric list -> unit

val load_baselines : path:string -> float option * (string * int) list
(** [(tolerance_pct, metrics)] from a baselines file. Raises [Failure]
    with a readable message on a malformed or wrong-schema file. *)

val outcome_report : outcome -> Report.t
(** The regress run as a benchmark document (for [--bench-out]). *)
