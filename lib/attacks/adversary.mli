(** The malicious-kernel personality.

    Where {!Attacks} scripts one attack per scenario, [Adversary] turns the
    whole OS hostile: armed on a process, it interposes between the shim
    and the real dispatcher and runs a seeded campaign of Iago attacks for
    the lifetime of the process. Every attack is drawn from a per-class
    PRNG and recorded in the VMM's audit trail, so the same seed replays
    the same campaign byte-for-byte — the property the adversary sweep
    uses to check determinism.

    The defense contract under any campaign: the victim either completes
    with an output identical to its fault-free run, or dies a *typed*
    death — a {!Oshim.Shim.Hostile_os} refusal, a [Guest.Errno.Error]
    degradation, or a VMM security kill. Never a silent corruption, never
    a plaintext leak. *)

type cls =
  | Lies  (** lying syscall returns: overclaimed/negative lengths, bogus
              pointers and errnos, wrong result shapes, shrunk mmaps *)
  | Address  (** remap cloaked VAs to different frames, double-map two VAs
                 onto one frame, replay stale ciphertext versions *)
  | Identity  (** wrong-pid wait/getpid/fork answers, spurious signal
                  delivery *)
  | Sched  (** vCPU starvation mid-syscall, EIO storms, shim re-entry *)

val classes : cls list
val class_name : cls -> string

type t

val create : vmm:Cloak.Vmm.t -> cls:cls -> seed:int -> t
(** A fresh personality for one attack class; [seed] fully determines the
    campaign (given a deterministic victim). *)

val arm : t -> Guest.Abi.env -> unit
(** Interpose on [env.dispatch] and start watching the VMM's page
    placements. Arm {e before} [Shim.install] so the shim's direct
    dispatcher is the liar — the configuration the paraverification layer
    is designed for. *)

val executed : t -> int
(** Attacks actually executed so far (also counted per class in the VMM's
    [adv_*] counters and audited). *)
