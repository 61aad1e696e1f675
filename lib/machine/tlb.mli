(** Software model of the hardware TLB. Entries are tagged with the shadow
    context that installed them (the multi-shadowing analogue of an
    address-space tag), so switching shadow contexts need not flush
    everything unless the design under test requires it. *)

type entry = { shadow : int; vpn : Addr.vpn; mpn : Addr.mpn; writable : bool }

type t

val create : ?engine:Inject.t -> ?slots:int -> unit -> t
(** Direct-mapped with [slots] entries (default 256, power of two). With an
    injection engine, inserts ({!Inject.Tlb_insert}) and guest-initiated
    invalidations ({!Inject.Tlb_flush}) become hostile-world hook points. *)

val query : t -> shadow:int -> vpn:Addr.vpn -> access:Fault.access -> Addr.mpn
(** The cached MPN for this shadow and VPN if the entry permits [access]
    (a read hits any entry, a write only a writable one), or [-1] on a miss
    or a permission failure. Allocates nothing: this is the hit path of
    every simulated load and store. *)

val insert : t -> entry -> unit
val flush_all : t -> unit
val flush_shadow : t -> shadow:int -> unit
val flush_vpn : t -> vpn:Addr.vpn -> unit
(** Remove all entries for a VPN in any shadow. This is the VMM's own
    trusted shootdown — never subject to injection. *)

val flush_mpn : t -> mpn:Addr.mpn -> unit
(** Remove every entry translating to a machine frame, in any shadow. The
    VMM's reclamation shootdown (trusted, never injected): a frame is
    flushed before reuse, so a lost guest invalidation can at worst serve
    a process its own stale frame, never someone else's. *)

val guest_flush_vpn : t -> vpn:Addr.vpn -> unit
(** INVLPG on behalf of the guest kernel. Under a [Stale_entry] injection
    the invalidation is lost and the stale translation survives — the
    desync a hostile or buggy guest can produce. *)
