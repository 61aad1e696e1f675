(** Typed views over simulated user memory, for workload kernels that want
    arrays of 64-bit integers or bytes living in the guest address space
    (and therefore subject to cloaking, paging and the cost model). *)

type t

val alloc : Uapi.t -> elems:int -> t
(** An array of [elems] 64-bit slots in the heap. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

type bytes_view

val alloc_bytes : Uapi.t -> len:int -> bytes_view
val get_byte : bytes_view -> int -> int
val set_byte : bytes_view -> int -> int -> unit
