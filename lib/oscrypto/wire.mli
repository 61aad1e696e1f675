(** Total reader for the byte formats that cross the VMM's trust boundary
    (migration frames, sealed checkpoints, journal records and
    checkpoints, metadata exports).

    A {!t} is a cursor over a byte range. Every read either advances it
    past one well-formed field or returns [Malformed], naming the byte
    offset and what was expected there; no read raises. Fields are read in
    place: numbers are decoded from the buffer without copying them out.

    Numbers are canonical: each value has exactly one accepted encoding,
    the one the encoder's format string writes, so a successful decode
    re-encodes to the same bytes. *)

type error = Malformed of { offset : int; what : string }
type 'a r = ('a, error) result

type t

val of_bytes : ?pos:int -> ?len:int -> bytes -> t
(** A cursor over [len] bytes (default: to the end) starting at [pos]
    (default 0). Raises [Invalid_argument] on a range outside the buffer:
    the range comes from the caller, not from the input. *)

val of_string : string -> t
(** A cursor over a whole string, which the reader never mutates. *)

val authenticated : key:bytes -> bytes -> t r
(** The MAC envelope: a body followed by its 32-byte [Hmac.mac]. Returns
    a cursor over the body once the tag checks. Refusals: [what =
    "truncated"] when there is no room for the tag, ["fails
    authentication"] when the tag is wrong. *)

val ( let* ) : 'a r -> ('a -> 'b r) -> 'b r
val fail : t -> string -> 'a r
(** [Malformed] at the cursor's offset. *)

val remaining : t -> int

val literal : t -> string -> unit r
(** Exactly these bytes. *)

val next_is : t -> char -> bool
(** Whether the next byte is [c], without consuming it. *)

val field : t -> char -> string r
(** The bytes up to the next [sep], which is consumed but not returned. *)

val int : ?lo:int -> ?hi:int -> ?sep:char -> t -> int r
(** A signed decimal exactly as [%d] writes it: no sign on non-negative
    values, no leading zero, no ["-0"], no overflow. It must lie in
    [[lo, hi]] (default: any int). With [sep], the separator byte must
    follow and is consumed. *)

val hex_int : ?lo:int -> ?hi:int -> t -> width:int -> int r
(** [width] lowercase hex digits exactly as [%0<width>x] writes an int
    (so at most 63 significant bits), in [[lo, hi]]. *)

val hex_bytes : t -> int -> bytes r
(** [n] bytes written as [2n] lowercase hex digits, as [Sha256.hex]
    renders them. *)

val raw : t -> int -> bytes r
(** The next [n] bytes, copied out. *)

val count : int -> (t -> 'a r) -> t -> 'a list r
(** [count n read] reads [n] records in order. Nothing is sized from [n]
    before the records are read, so a claimed count far beyond the input
    fails at the end of input. *)

val eof : t -> unit r
(** No bytes left. *)
