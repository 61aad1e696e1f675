(** The adversary sweep: every workload under a fully malicious OS.

    Where chaos/soak model an {e environmentally} faulty world (lost
    writes, bit flips, crashes) this harness points
    {!Attacks.Adversary} — a seeded malicious-kernel personality — at
    each workload: one sweep cell is a workload x an attack class x a
    seed, run twice for audit determinism, against a fault-free baseline
    of the same stack.

    The contract checked per cell:
    - {b no plaintext leak}: the cloaked canary never appears on an
      OS-visible surface, whatever the kernel does;
    - {b no silent corruption}: the victim either completes with its
      fault-free digest, or dies a typed death — a
      {!Oshim.Shim.Hostile_os} refusal (exit 81), a bounded errno
      degradation (exit 82), or VMM/kernel containment (-2/-3/137/139).
      Wrong output with a clean exit is the one forbidden outcome;
    - {b determinism}: two runs of the same cell produce bit-identical
      audit streams (modulo bounded-ring truncation). *)

val secret : string

val kconfig : Guest.Kernel.config

(** {1 Victims} *)

type workload = {
  w_name : string;
  program : digest:int option ref -> Guest.Abi.program;
}

val workloads : workload list
(** The E2/E3 set: every SPEC-style kernel plus the fileio mix, each
    carrying the cloaked canary and publishing an output digest. *)

(** {1 Verdicts} *)

type outcome =
  | Survived  (** exited 0 with the fault-free digest *)
  | Refused   (** typed [Hostile_os] refusal, exit 81 *)
  | Degraded  (** typed errno degradation, exit 82 *)
  | Killed of int  (** VMM/kernel containment: -2, -3, 137, 139 *)
  | Silent of string  (** the one forbidden outcome *)


type class_report = {
  cls : Attacks.Adversary.cls;
  attacks : int;
  lies_detected : int;
  refusals : int;
  outcome : outcome;
}

type seed_report = {
  seed : int;
  workload : string;
  classes : class_report list;
  attacks : int;
  lies_detected : int;
  refusals : int;
  survived : int;
  refused : int;
  degraded : int;
  killed : int;
}

val scenario : seed_report Scenario.t
(** Per seed: one fault-free baseline cell, then every attack class as a
    replayed cell (9 stacks); a class whose victim finishes with the wrong
    digest or an untyped status is a silent corruption. *)
