(** Crash-point matrix: systematic power cuts at every durable-write site.

    For each seed, a calibration run (no faults) counts how often each
    crash site fires; the matrix then re-runs the workload once per
    sampled (site, occurrence) pair with a single {!Inject.Crash_point}
    rule, catches the {!Inject.Vmm_crash} power cut, and drives
    {!Cloak.Recovery.replay} against the surviving block devices with a
    fresh same-seed VMM. Three invariants must hold at every crash point:

    - {b no committed-data loss}: every page binding the journal reported
      durably committed (observed through the ledger oracle installed with
      {!Cloak.Journal.set_observer}) is recovered intact, or its resource
      is loudly quarantined — never silently missing;
    - {b no torn-state acceptance}: every page recovery installs is
      independently re-authenticated against the journaled metadata and
      the on-device bytes, and every torn resource is condemned in the
      recovered VMM;
    - {b deterministic replay}: the crash run and the recovery replay
      produce bit-identical audit trails when repeated from the same
      seed. *)

val crash_sites : Inject.site list
(** The durable-write sites the matrix covers: journal appends, journal
    checkpoints, device-block writes, device-block frees. *)

val kconfig : Guest.Kernel.config
(** Tight guest memory, a 16-block journal and a short checkpoint cadence,
    so swap traffic and mid-run checkpoints land inside the matrix. *)

val protagonist : Guest.Abi.program
(** Cloaked workload: two protected objects saved and synced, one
    re-opened and re-saved (freeing journal-referenced blocks), plus
    cloaked anonymous memory that joins the swap churn. *)

val antagonist : Guest.Abi.program
(** Uncloaked memory/disk pressure that pushes shm pages through swap. *)

type point = { site : Inject.site; occurrence : int }

val point_to_string : point -> string

val sample : per_site:int -> int -> int list
(** [sample ~per_site total]: up to [per_site] evenly spaced occurrence
    numbers spanning [1..total] inclusive, so the last occurrence (for a
    migration, the post-fence COMMIT exchange) is always a crash point. *)

(** {1 Calibration} *)

type journal_stats = {
  records : int;            (** journal records appended in a clean run *)
  store_writes : int;       (** journal store block writes (overhead) *)
  checkpoints : int;
  data_writes : int;        (** non-journal device block writes *)
  occurrences : (Inject.site * int) list;
      (** how often each crash site fired in the clean run *)
}


(** {1 One crash point} *)

type outcome = {
  point : point;
  seed : int;
  crashed : bool;           (** the power cut actually fired *)
  ledger_committed : int;   (** durable bindings at the moment of the cut *)
  committed : int;          (** recovery classification counts *)
  redone : int;
  torn : int;
  quarantined : int;
  replay_s : float;         (** wall-clock spent in {!Cloak.Recovery.replay} *)
  failures : string list;
      (** broken durability and authentication invariants; empty on
          success *)
  hdr : Scenario.header;
      (** the crash-run audit trail followed by the recovery trail, and
          the flight-recorder verdicts of both *)
}

val run_point : seed:int -> point -> outcome
(** Run the workload until the crash point fires, recover on a fresh
    same-seed VMM from the surviving devices, and check invariants 1-2. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 The matrix} *)

type seed_report = { stats : journal_stats; outcomes : outcome list }

val scenario : seed_report Scenario.t
(** Per seed: calibrate, then every sampled crash point as a replayed cell
    (invariant 3 is the runner's replay rule). *)
