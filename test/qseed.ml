(* The one QCheck seed every property suite draws from. It is fixed so
   tier-1 is the same on every run, and printed so any failure replays;
   QCHECK_SEED=<n> overrides it (with QCHECK_LONG=1 for the long counts):

     QCHECK_SEED=<n> QCHECK_LONG=1 dune test --force *)

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> int_of_string s
  | None -> 0x05ad0c12

let () = Printf.printf "qcheck seed: %d\n%!" seed

(* Each property gets its own generator state, so one property's draws
   never shift another's. *)
let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
