(** HMAC-SHA256 (RFC 2104). The cloaking engine authenticates page metadata
    with HMAC so that a hash alone cannot be forged by an adversary that
    knows the page contents. *)

val mac : key:bytes -> bytes -> bytes
(** 32-byte authentication tag over the message under [key]. *)

val mac_string : key:string -> string -> bytes
(** Convenience wrapper over strings. *)

val verify : key:bytes -> tag:bytes -> bytes -> bool
(** Constant-shape comparison of [tag] against the recomputed MAC. *)

val verify_trailer : key:bytes -> bytes -> len:int -> bool
(** Whether the 32 bytes at [len] are the MAC of the first [len] bytes,
    checked in place; [false] when the buffer is too short. *)
