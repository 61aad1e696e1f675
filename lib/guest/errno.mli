(** Error codes returned by guest kernel services, mirroring the POSIX
    errnos the toy kernel needs. *)

type t =
  | ENOENT
  | EEXIST
  | EBADF
  | EINVAL
  | ENOMEM
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EPIPE
  | ECHILD
  | ESRCH
  | EACCES
  | ENOSPC
  | EIO  (** device error that survived the kernel's bounded retries *)

val to_string : t -> string

exception Error of t
(** Raised by the user-level API when a syscall fails. *)
