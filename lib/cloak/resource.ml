type t = Anon of int | Shm of int

let equal a b =
  match (a, b) with
  | Anon x, Anon y | Shm x, Shm y -> x = y
  | Anon _, Shm _ | Shm _, Anon _ -> false

let tag = function
  | Anon x -> Printf.sprintf "anon:%d" x
  | Shm x -> Printf.sprintf "shm:%d" x

let read c =
  let open Oscrypto.Wire in
  let anon = next_is c 'a' in
  let kind = literal c (if anon then "anon:" else "shm:") in
  let n = int c in
  match (kind, n) with
  | Ok (), Ok n -> Ok (if anon then Anon n else Shm n)
  | Error e, _ | _, Error e -> Error e

let of_tag s =
  let c = Oscrypto.Wire.of_string s in
  match read c with
  | Ok r when Result.is_ok (Oscrypto.Wire.eof c) -> Some r
  | Ok _ | Error _ -> None

