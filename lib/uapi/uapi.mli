(** The user-level API — the "libc" of the simulation.

    Guest programs are OCaml closures over a {!t}. All memory lives in the
    simulated address space and is accessed through the application's [App]
    view of the VMM (plaintext for cloaked processes); all syscalls go
    through [env.dispatch] so the Overshadow shim can interpose. Failed
    syscalls raise {!Guest.Errno.Error}. *)

type t

val of_env : Guest.Abi.env -> t
val env : t -> Guest.Abi.env
val pid : t -> int
val cloaked : t -> bool

(** {1 Memory} *)

val malloc : t -> int -> Machine.Addr.vaddr
(** Bump-allocate in the heap (8-byte aligned), growing the break as
    needed. There is no free: programs are short-lived workloads. *)

val load : t -> vaddr:Machine.Addr.vaddr -> len:int -> bytes
val store : t -> vaddr:Machine.Addr.vaddr -> bytes -> unit
val load_byte : t -> vaddr:Machine.Addr.vaddr -> int
val store_byte : t -> vaddr:Machine.Addr.vaddr -> int -> unit

val load_word : t -> vaddr:Machine.Addr.vaddr -> int
val store_word : t -> vaddr:Machine.Addr.vaddr -> int -> unit
(** A 64-bit little-endian word, charged as an 8-byte {!load}/{!store}.
    Like the byte accessors, a TLB hit allocates nothing. *)

val touch : t -> access:Machine.Fault.access -> vaddr:Machine.Addr.vaddr -> len:int -> unit
(** Charge for (and fault in) an access without materializing data; the
    fast path for compute-kernel inner loops. *)

val compute : t -> cycles:int -> unit
(** Burn pure CPU: charges the cycle account and yields to the timer at
    every quantum, so cloaked processes pay their interrupt-transfer tax. *)

(** {1 Processes} *)

val getpid : t -> int
val getppid : t -> int
val yield : t -> unit
val exit : t -> int -> 'a
val fork : t -> child:Guest.Abi.program -> int
val exec : t -> Guest.Abi.program -> 'a
(** Replace the image, keeping the current cloaking state. *)

val exec_cloaked : t -> Guest.Abi.program -> 'a
(** Exec an "encrypted binary": the fresh image runs cloaked. *)

val exec_uncloaked : t -> Guest.Abi.program -> 'a
val wait : t -> int * int
(** Reap a child: (pid, status). *)

val sbrk : t -> pages:int -> Machine.Addr.vpn
val mmap : t -> pages:int -> ?cloaked:bool -> unit -> Machine.Addr.vpn
val munmap : t -> start_vpn:Machine.Addr.vpn -> pages:int -> unit

(** {1 Files and pipes} *)

val openf : t -> string -> Guest.Abi.open_flag list -> int
val close : t -> int -> unit
val read : t -> fd:int -> vaddr:Machine.Addr.vaddr -> len:int -> int
val write : t -> fd:int -> vaddr:Machine.Addr.vaddr -> len:int -> int
val read_bytes : t -> fd:int -> len:int -> bytes
(** Read through a heap bounce buffer; loops until [len] or EOF. *)

val write_bytes : t -> fd:int -> bytes -> unit
(** Write all of the buffer through a heap bounce buffer. *)

val lseek : t -> fd:int -> pos:int -> whence:Guest.Abi.whence -> int
val stat : t -> string -> Guest.Abi.stat
val fstat : t -> int -> Guest.Abi.stat
val unlink : t -> string -> unit
val rename : t -> src:string -> dst:string -> unit
val mkdir : t -> string -> unit
val readdir : t -> string -> string list
val pipe : t -> int * int
(** (read fd, write fd). *)

val dup : t -> int -> int
val sync : t -> unit

(** {1 Supervision} *)

val checkpoint : t -> int
(** Ask the supervisor to capture a sealed checkpoint at this quiesce
    point; returns the new seal generation. Raises [Errno.Error EINVAL]
    for unsupervised processes. *)

val restored : t -> bool
(** True when this image was respawned from a sealed checkpoint:
    restart-aware programs skip initialization and reattach to their
    restored cloaked state instead. *)

val incarnation : t -> int
(** 0 on first spawn, then the supervisor's restart count. *)

(** {1 Signals} *)

val kill : t -> pid:int -> signum:int -> unit
val on_signal : t -> signum:int -> (int -> unit) -> unit
(** Install a user handler, run by the dispatch loop on delivery. *)

val ignore_signal : t -> signum:int -> unit

val syscall : t -> Guest.Abi.call -> Guest.Abi.value
(** Escape hatch used by the shim and by tests. *)
