(** Shadow contexts.

    Multi-shadowing gives the same guest address space several views: the
    [App] view is what the cloaked application itself sees (plaintext); the
    [Sys] view is what everything else — the guest kernel, other processes,
    simulated DMA — sees (ciphertext). Each (asid, view) pair owns its own
    shadow page table. *)

type view = App | Sys

type t = { asid : int; view : view }

val app : int -> t
val sys : int -> t
val equal : t -> t -> bool
