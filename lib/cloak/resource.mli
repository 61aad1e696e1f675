(** Protected resources.

    Cloaked page metadata is keyed by (resource, page index) — a *logical*
    identity independent of where the OS happens to place the page in guest
    physical memory. This is what defeats relocation attacks: moving
    ciphertext to a different offset or resource changes the key under which
    it is verified. *)

type t =
  | Anon of int  (** the private memory of the cloaked process with this asid *)
  | Shm of int   (** a cloaked shared-memory object (also backs protected files) *)

val equal : t -> t -> bool
val tag : t -> string
(** Stable serialization mixed into the page MAC. *)

val read : Oscrypto.Wire.t -> t Oscrypto.Wire.r
(** Read a {!tag} at the cursor. *)

val of_tag : string -> t option
(** Parse a whole {!tag} back; [None] on anything else, including a
    non-canonical number. *)

