(** Security faults.

    When the cloaking engine detects that the OS (or anything else) has
    tampered with protected state, it raises a security fault. The policy
    is fail-stop {e per protected resource}: the owning cloaked application
    is terminated and the resource quarantined rather than allowed to run
    on corrupted data — the guest and every other cloaked application keep
    running. Privacy is enforced unconditionally (the OS only ever sees
    ciphertext); integrity is enforced by detection. *)

type kind =
  | Integrity   (** page MAC verification failed: tampered or rolled back *)
  | Relocation  (** a plaintext cloaked page surfaced at a different machine
                    page than its home — the OS moved or substituted it *)
  | Lost_plaintext  (** the OS discarded a plaintext cloaked page *)
  | Bad_resume  (** attempt to resume a cloaked thread with a context that
                    does not match the saved one *)
  | Metadata_forged (** an imported protected object failed authentication *)
  | Iv_reuse    (** the entropy source repeated an IV for a fresh
                    encryption — re-encrypting under it would leak the XOR
                    of two plaintexts, so the page transition is refused *)
  | Torn_state  (** crash recovery found a page whose journal intent has no
                    commit and whose on-disk bytes fail verification — the
                    write was torn by the crash; the page is quarantined,
                    never silently served *)
  | Stale_checkpoint
      (** a sealed checkpoint older than the journal's latest sealed
          generation for the resource was offered for restore — accepting
          it would turn supervised restart into a rollback oracle, so the
          restore is refused *)

type t = {
  kind : kind;
  detail : string;
  resource : Resource.t option;
      (** the protected resource the fault concerns, when known — the
          containment layer uses it to kill only the owning process *)
}

exception Security_fault of t

val is_stale : exn -> bool
(** [true] iff the exception is a [Stale_checkpoint] security fault — the
    one outcome a replayed or double-resumed checkpoint may have. *)

val fail : ?resource:Resource.t -> kind -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail kind fmt ...] raises {!Security_fault} with a formatted detail. *)

val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit
