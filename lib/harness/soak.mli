(** Availability soak: supervised restart under sustained hostile fire.

    Each seed derives a fault plan that repeatedly kills a restart-aware
    cloaked service mid-run (IV-reuse and ciphertext bit-flips trigger
    security kills; allocator exhaustion triggers OOM kills), then runs
    the identical workload three ways: fault-free (the useful-work
    baseline), supervised (sealed checkpoints + restart-with-backoff), and
    unsupervised (first fatal kill is final). Three invariants must hold
    for every seed:

    - {b privacy across restarts}: the canary planted in the service's
      cloaked state never appears on any OS-visible surface — machine
      memory, RAM remanence, disk or swap blocks, or {e inside the sealed
      checkpoint blobs themselves};
    - {b no stale-checkpoint acceptance}: after the run, offering the
      supervisor's previous (validly MAC'd) checkpoint back to the VMM
      raises [Stale_checkpoint], while the latest checkpoint still
      unseals — supervised restart is not a rollback oracle;
    - {b determinism}: the same seed in the same mode yields bit-identical
      audit logs.

    Across the whole seed set, supervision must strictly beat its absence:
    total supervised units > total unsupervised units under the same
    plans (a sweep-level failure of {!scenario}). *)

val canary : string

val rounds : int
(** Units of work a fault-free service completes. *)

val restartable :
  rounds:int -> unit_cycles:int -> vault:bool -> Guest.Abi.program
(** The restart-aware cloaked service: a cloaked state page (unit counter
    and canary) mmapped first, [rounds] units of [unit_cycles] each, one
    OS-visible progress byte per unit and a sealed checkpoint (the
    quiesce point) after every unit; a restored incarnation resumes from
    its counter. [vault] adds a protected-file round trip to every unit.
    The soak runs it with the vault, the migration harness without. *)

val kconfig : Guest.Kernel.config
(** Tight guest memory plus a metadata journal (seal generations must be
    anchored for the stale-checkpoint invariant to mean anything). *)

val policy : Guest.Kernel.restart_policy

val scan_leaks : Cloak.Vmm.t -> Guest.Kernel.t -> string list
(** Every OS-visible surface (machine memory, RAM remanence, disk and swap
    blocks) holding the canary, for harnesses that plant it — shared with
    the migration and fleet harnesses. *)

val wire_leaks : bytes list -> string list
(** The recorded wire frames holding the canary, as ["wire frame <i>"]. *)

type seed_report = {
  seed : int;
  units_ff : int;        (** fault-free useful work *)
  units_sup : int;       (** useful work, supervised, under faults *)
  units_unsup : int;     (** useful work, unsupervised, same plan *)
  restarts : int;
  circuit_breaks : int;
  checkpoints : int;
  recovery_cycles : int;
  trace_dropped : int;
      (** worst flight-recorder ring truncation across the seed's runs *)
  hot_spots : (string * int) list;
      (** the supervised run's top self-cycle call contexts
          ({!Profile.hot_spots}) — where a flagged perf regression most
          likely lives; empty when that run's trace ring wrapped *)
}

val scenario : seed_report Scenario.t
(** Per seed: fault-free, supervised (replayed for determinism) and
    unsupervised cells, then the stale-checkpoint probes. The sweep fails
    unless supervision strictly beat its absence on total useful work. *)
