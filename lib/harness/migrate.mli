(** Live-migration harness: drain a supervised cloaked process at a
    source VMM, ship its sealed checkpoint over the hostile channel
    ({!Cloak.Migrate}), adopt and resume it at a destination VMM — under
    load, under injected channel faults, and across a crash matrix.

    Per seed the runner performs a clean-channel migration, the same
    scenario twice under a seed-derived hostile plan (drop, duplicate,
    delay, reorder, bit-flip, truncate on [Mig_send]/[Mig_recv]/
    [Mig_ack]), and checks:

    - {b exactly one incarnation}: committed ⇒ the source retires with
      {!Guest.Kernel.migrated_exit_status} and the destination finishes
      every unit; aborted ⇒ the source completes as if migration were
      never requested (nothing staled, no lost progress);
    - {b privacy on the wire}: the canary sealed into the service's
      cloaked state never appears in any transported frame, on either
      machine's OS-visible surfaces, or in the blobs;
    - {b replay/tamper resistance}: post-run probes re-unseal the
      migrated blob at the source, re-adopt it at the destination and
      replay the recorded wire log — all must die in [Stale_checkpoint];
      a bit-flipped frame is rejected [Bad_mac], unacknowledged;
    - {b bounded downtime}: drain windows plus destination install stay
      under {!downtime_bound} model cycles;
    - {b determinism}: identical seeds and plans reproduce bit-identical
      audit logs. *)

val rounds : int
(** Units of work the service completes (source + destination combined). *)

val service : Guest.Abi.program
(** The restart-aware migratable workload (soak idiom: cloaked state
    page, canary, progress file, checkpoint per unit). *)

val antagonist : Guest.Abi.program
(** Uncloaked noise run beside the service on both machines. *)

val kconfig : Guest.Kernel.config
val policy : Guest.Kernel.restart_policy

(** {1 Migration sessions}

    One session moves a sealed blob from a sender to a receiver over the
    hostile channel: retransmission rounds under the shared retry policy
    until READY or the deadline, then fence + COMMIT, or ABORT; either
    way both session keys are scrubbed. The fleet's drains and rescues
    use the same code. *)

type link = { ch : Cloak.Migrate.channel; jitter : Oscrypto.Prng.t }
(** The wire and the retry jitter that sessions share. *)

val attempt :
  link -> src:Cloak.Vmm.t -> tag:string -> Cloak.Migrate.sender ->
  Cloak.Migrate.receiver -> bool
(** Run one session; [true] iff it committed, in which case [src] has
    retired [tag]'s seal generation before COMMIT went out (the
    split-brain fence) and the receiver holds the verified blob. *)

(** {1 The sweep} *)

type seed_report = {
  seed : int;
  clean_committed : bool;
  clean_downtime : int;
  hostile_committed : bool;
  hostile_attempts : int;
  hostile_breaker : bool;
  hostile_downtime : int;
  attempts : int;  (** clean + hostile + blackhole attempts (drain count) *)
  completed : int;
  aborts : int;
  retries : int;  (** transfer-round retries under the shared backoff *)
  mac_failures : int;  (** frames rejected for a bad MAC, both ends *)
  downtime_cycles : int;
  breaker_trips : int;  (** runs that exhausted the attempt budget *)
  wire_frames : int;
  crash_points : int;  (** crash-matrix points run for this seed *)
  crash_fenced : int;  (** of which the source had fenced *)
}

val scenario : seed_report Scenario.t
(** Per seed: clean, hostile (replayed for determinism) and blackhole
    cells, invariant checks and adversarial probes. The first three
    seeds of a sweep also power the source off at up to 4 calibrated
    occurrences of every channel site (each a replayed cell) and
    post-mortem the split-brain invariants: fenced ⇒ the destination
    adopts the verified blob exactly once; not fenced ⇒ the receiver
    never committed and the source's latest checkpoint still unseals. *)
