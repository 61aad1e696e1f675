(** AES-128 block cipher and CTR mode (FIPS 197 / SP 800-38A), implemented
    from scratch for the sealed build environment. The cloaking engine uses
    AES-128-CTR with a per-encryption random IV to encrypt guest pages.

    The cipher is table-driven: four T-tables derived from the S-box at
    module initialisation, a flat 44-word key schedule and four int-packed
    column words per block. After {!expand}, encryption allocates nothing
    per block or per round; {!ctr_transform} allocates only its result.
    Table lookups depend on secret state, so it is not constant-time
    against host cache timing (outside the simulator's threat model). *)

type key
(** Expanded AES-128 key schedule. *)

val expand : bytes -> key
(** Expand a 16-byte key. Raises [Invalid_argument] on any other length. *)

val encrypt_block : key -> bytes -> bytes
(** Encrypt one 16-byte block. Raises [Invalid_argument] on other lengths. *)

val ctr_transform : key -> iv:bytes -> bytes -> bytes
(** Encrypt or decrypt (the operation is an involution) a buffer of any
    length in CTR mode with the given 16-byte IV, returning a fresh buffer.
    The counter occupies the last four bytes of the IV block, big-endian,
    and wraps modulo 2^32 without carrying into the first twelve. *)
