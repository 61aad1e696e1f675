(* E8 (wall-clock half): Bechamel micro-benchmarks of the simulator's host
   layers — the from-scratch crypto substrate per 4 KiB page, the access
   path on a TLB hit, and the set-up of a whole stack. These are
   host-machine numbers, not model cycles; they document how fast the
   OCaml implementation of each layer actually runs. *)

open Bechamel
open Toolkit

let page = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF))
let key = Oscrypto.Aes.expand (Bytes.of_string "0123456789abcdef")
let iv = Bytes.make 16 '\x42'
let mac_key = Bytes.of_string "a-32-byte-key-for-hmac-sha256!!!"

let tests =
  Test.make_grouped ~name:"crypto-page"
    [
      Test.make ~name:"aes-ctr-4k"
        (Staged.stage (fun () -> ignore (Oscrypto.Aes.ctr_transform key ~iv page)));
      Test.make ~name:"sha256-4k"
        (Staged.stage (fun () -> ignore (Oscrypto.Sha256.digest page)));
      Test.make ~name:"hmac-4k"
        (Staged.stage (fun () -> ignore (Oscrypto.Hmac.mac ~key:mac_key page)));
      Test.make ~name:"cloak-page (aes+hmac)"
        (Staged.stage (fun () ->
             let c = Oscrypto.Aes.ctr_transform key ~iv page in
             ignore (Oscrypto.Hmac.mac ~key:mac_key c)));
    ]

(* The access path is measured inside a cloaked guest program, so the
   accessors timed are the ones workloads call, on a resident page whose
   shadow entry is already in the TLB (the warm-up store faults it in). *)
let access_tests (u : Uapi.t) =
  let vaddr = Uapi.malloc u 8 in
  Uapi.store_word u ~vaddr 0;
  Test.make_grouped ~name:"access-path"
    [
      Test.make ~name:"uapi load_word (TLB hit)"
        (Staged.stage (fun () -> ignore (Uapi.load_word u ~vaddr)));
      Test.make ~name:"uapi store_byte (TLB hit)"
        (Staged.stage (fun () -> Uapi.store_byte u ~vaddr 7));
    ]

let stack_tests =
  Test.make_grouped ~name:"stack"
    [
      Test.make ~name:"harness run (empty, cloaked)"
        (Staged.stage (fun () -> ignore (Harness.run_program ~cloaked:true (fun _ -> ()))));
    ]

(* One OLS estimate (ns/run) per test, as table rows. *)
let estimate tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%.0f ns" t
        | Some [] | None -> "n/a"
      in
      [ name; est ] :: acc)
    results []

let run () =
  let access = ref [] in
  let r =
    Harness.run_program ~cloaked:true (fun env ->
        access := estimate (access_tests (Uapi.of_env env)))
  in
  if not (Harness.all_exited_zero r) then failwith "E8b: access-path program failed";
  let rows = estimate tests @ !access @ estimate stack_tests |> List.sort compare in
  Harness.Table.print ~title:"E8b: host wall-clock per layer (Bechamel)"
    ~note:"nanoseconds per operation on this machine (OLS estimate); crypto rows per 4 KiB page"
    ~headers:[ "operation"; "time/op" ]
    rows
