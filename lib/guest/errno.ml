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
  | EIO

let to_string = function
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | EBADF -> "EBADF"
  | EINVAL -> "EINVAL"
  | ENOMEM -> "ENOMEM"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | ENOTEMPTY -> "ENOTEMPTY"
  | EPIPE -> "EPIPE"
  | ECHILD -> "ECHILD"
  | ESRCH -> "ESRCH"
  | EACCES -> "EACCES"
  | ENOSPC -> "ENOSPC"
  | EIO -> "EIO"

exception Error of t
