(** Address arithmetic for the simulated machine.

    Three page-number spaces, following VMM terminology:
    - VPN: guest-virtual page number (per address space),
    - PPN: guest-physical page number (what the guest OS believes is RAM),
    - MPN: machine page number (actual simulated RAM, owned by the VMM). *)

type vpn = int
type ppn = int
type mpn = int
type vaddr = int

val page_size : int
(** 4096 bytes. *)

val vpn_of_vaddr : vaddr -> vpn
val offset_of_vaddr : vaddr -> int
val vaddr_of_vpn : vpn -> vaddr
(** Base address of a page. *)

val pages_spanned : vaddr -> int -> int
(** [pages_spanned addr len] is the number of pages a [len]-byte access at
    [addr] touches (at least 1 when [len] > 0; 0 when [len] = 0). *)
