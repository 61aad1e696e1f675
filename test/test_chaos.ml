(* Chaos harness: the three hostile-world invariants over many seeded
   fault plans, plus targeted checks of the containment machinery. *)

open Machine
open Guest

module S = Harness.Scenario

let chaos_seeds = S.seeds_from ~base:1 ~count:30

(* Each seed's hostile cell runs twice (the runner's replay rule), so this
   is 60 full-stack runs under 30 distinct fault plans. *)
let test_invariants () =
  let v = S.run Harness.Chaos.scenario ~seeds:chaos_seeds in
  Alcotest.(check (list string)) "no invariant failures" [] v.failures;
  Alcotest.(check int) "all seeds ran" (List.length chaos_seeds) (S.int v "seeds");
  Alcotest.(check bool) "the fault plans actually fired" true
    (S.int v "injections" > 0)

(* At least some plans must push the stack hard enough that containment
   does real work; otherwise the harness proves nothing. *)
let test_chaos_exercises_containment () =
  let hits =
    List.filter
      (fun seed ->
        let r = Harness.Chaos.run_once ~seed in
        r.contained > 0 || r.injections > 0)
      chaos_seeds
  in
  Alcotest.(check bool) "most seeds injected or contained something" true
    (List.length hits > List.length chaos_seeds / 2)

let test_determinism_audit_exact () =
  (* beyond the runner's pairwise replay check: a third run still matches, and the
     audit survives being compared line by line *)
  let seed = 20260806 in
  let a = Harness.Chaos.run_once ~seed in
  let b = Harness.Chaos.run_once ~seed in
  Alcotest.(check (list string)) "same seed, same audit" a.hdr.audit b.hdr.audit;
  Alcotest.(check int) "same seed, same injections" a.injections b.injections;
  Alcotest.(check (list (pair int (option int)))) "same exits" a.exit_statuses
    b.exit_statuses

let test_different_seeds_differ () =
  let plans_distinct =
    List.exists
      (fun s ->
        (Harness.Chaos.run_once ~seed:s).hdr.audit
        <> (Harness.Chaos.run_once ~seed:(s + 1)).hdr.audit)
      [ 3; 17 ]
  in
  Alcotest.(check bool) "different seeds explore different behaviour" true
    plans_distinct

(* --- targeted containment checks (single-fault plans) --- *)

let run_under rules prog =
  let engine = Inject.create (Inject.plan rules) in
  Harness.run_program ~engine ~cloaked:true prog

(* A transient device error must be retried and hidden from the program. *)
let test_transient_io_retried () =
  let prog (env : Abi.env) =
    let u = Uapi.of_env env in
    let data = Bytes.of_string "retry-me-please-all-the-way" in
    let fd = Uapi.openf u "/f" [ Abi.O_CREAT; Abi.O_RDWR ] in
    Uapi.write_bytes u ~fd data;
    Uapi.close u fd;
    Uapi.sync u;
    Uapi.exit u 0
  in
  let r =
    run_under
      [ { Inject.site = Blk_write; trigger = Inject.once ~at:1; action = Io_error } ]
      prog
  in
  Alcotest.(check bool) "process exits 0" true (Harness.all_exited_zero r);
  Alcotest.(check bool) "a retry was recorded" true (r.counters.io_retries > 0)

(* A persistent device error must surface as EIO, not a crash. *)
let test_persistent_io_is_eio () =
  let saw_eio = ref false in
  let prog (env : Abi.env) =
    let u = Uapi.of_env env in
    let fd = Uapi.openf u "/f" [ Abi.O_CREAT; Abi.O_RDWR ] in
    Uapi.write_bytes u ~fd (Bytes.of_string "doomed");
    Uapi.close u fd;
    (try Uapi.sync u with Errno.Error EIO -> saw_eio := true);
    Uapi.exit u 0
  in
  let r =
    run_under
      [ { Inject.site = Blk_write; trigger = Inject.always; action = Io_error } ]
      prog
  in
  Alcotest.(check bool) "process exits 0" true (Harness.all_exited_zero r);
  Alcotest.(check bool) "EIO surfaced" true !saw_eio

(* Machine-memory exhaustion inside a syscall surfaces as ENOMEM; the same
   exhaustion on a bare user-memory touch OOM-kills the process with 137.
   The run is deterministic, so a calibration run of the fork-free prefix
   tells us exactly which allocation count arms the fault inside fork. *)
let test_exhaustion_is_enomem () =
  let prefix u =
    let vaddr = Uapi.malloc u (4 * Addr.page_size) in
    for i = 0 to 3 do
      Uapi.store_byte u ~vaddr:(vaddr + (i * Addr.page_size)) 1
    done
  in
  let calibration (env : Abi.env) =
    let u = Uapi.of_env env in
    prefix u;
    Uapi.exit u 0
  in
  let probe = Inject.create (Inject.plan []) in
  ignore (Harness.run_program ~engine:probe ~cloaked:true calibration);
  let allocs = Inject.occurrences probe Inject.Phys_alloc in
  let saw = ref false in
  let prog (env : Abi.env) =
    let u = Uapi.of_env env in
    prefix u;
    (try ignore (Uapi.fork u ~child:(fun env' -> Uapi.exit (Uapi.of_env env') 0))
     with Errno.Error ENOMEM -> saw := true);
    Uapi.exit u (if !saw then 0 else 3)
  in
  let r =
    run_under
      [
        {
          Inject.site = Phys_alloc;
          trigger = { start = allocs + 1; every = 1; count = max_int };
          action = Exhaust;
        };
      ]
      prog
  in
  Alcotest.(check bool) "ENOMEM surfaced" true !saw;
  Alcotest.(check bool) "caller survived the failed fork" true
    (Harness.all_exited_zero r);
  (* and the user-touch flavour: exhaustion while materializing a page the
     program is writing directly OOM-kills it with the distinct status *)
  let toucher (env : Abi.env) =
    let u = Uapi.of_env env in
    let vpn = Uapi.mmap u ~pages:64 () in
    let base = Addr.vaddr_of_vpn vpn in
    for i = 0 to 63 do
      Uapi.store_byte u ~vaddr:(base + (i * Addr.page_size)) 1
    done;
    Uapi.exit u 0
  in
  let r2 =
    run_under
      [
        {
          Inject.site = Phys_alloc;
          trigger = { start = allocs + 1; every = 1; count = max_int };
          action = Exhaust;
        };
      ]
      toucher
  in
  match r2.exit_statuses with
  | [ (_, status) ] ->
      Alcotest.(check (option int)) "OOM-killed with 137" (Some 137) status
  | _ -> Alcotest.fail "expected one process"

(* A security fault raised from a syscall path (here: a tampered metadata
   import inside the shim's protected-file open) must kill only the owning
   cloaked process with the distinct -2 status, quarantine the resource,
   and leave the rest of the guest running. *)
let test_syscall_path_containment () =
  let engine =
    Inject.create
      (Inject.plan
         [ { Inject.site = Meta_import; trigger = Inject.always; action = Bit_flip 7 } ])
  in
  let r =
    Harness.run ~engine
      ~spawn:(fun k ->
        let victim =
          Kernel.spawn k ~cloaked:true (fun env ->
              let u = Uapi.of_env env in
              let sh = Oshim.Shim.install u in
              let f = Oshim.Shim_io.create sh ~path:"/vault" ~pages:1 in
              Oshim.Shim_io.write sh f ~pos:0
                (Bytes.of_string Harness.Chaos.secret);
              Oshim.Shim_io.save sh f;
              Oshim.Shim_io.close sh f;
              (* re-open: the import sees bit-flipped metadata *)
              let f2 = Oshim.Shim_io.open_existing sh ~path:"/vault" in
              ignore (Oshim.Shim_io.read sh f2 ~pos:0 ~len:8);
              Uapi.exit u 0)
        in
        let bystander =
          Kernel.spawn k (fun env ->
              let u = Uapi.of_env env in
              Uapi.compute u ~cycles:100_000;
              Uapi.exit u 0)
        in
        [ victim; bystander ])
      ()
  in
  (match r.exit_statuses with
  | [ (_, victim_status); (_, bystander_status) ] ->
      Alcotest.(check (option int)) "victim killed with security status"
        (Some (-2)) victim_status;
      Alcotest.(check (option int)) "bystander unaffected" (Some 0)
        bystander_status
  | _ -> Alcotest.fail "expected two processes");
  Alcotest.(check bool) "violation recorded" true (r.violations <> []);
  (* No quarantine here, deliberately: the tampered blob fails
     authentication before its resource name can be trusted, so the VMM
     refuses to condemn a resource on the attacker's say-so. Quarantine
     on authenticated-resource violations is covered in test_cloak. *)
  let contains_sub line sub =
    let n = String.length sub and len = String.length line in
    let rec go i =
      i + n <= len && (String.sub line i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "audit saw the violation" true
    (List.exists (fun line -> contains_sub line "violation") r.audit);
  Alcotest.(check bool) "audit saw the injection" true
    (List.exists (fun line -> contains_sub line "inject") r.audit)

(* --- the scenario runner: the one replay rule and the uniform checks --- *)

let hdr ?(dropped = 0) ?crash ?(leaks = []) ?(trace = []) audit =
  { S.crash; leaks; audit; audit_dropped = dropped; trace_failures = trace }

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_replay_rule () =
  let a = hdr [ "#000 inject blk-read"; "#001 quarantine shm:1" ] in
  Alcotest.(check (option string)) "identical pair passes" None
    (S.determinism_failure a (hdr a.audit));
  Alcotest.(check (option string)) "different pair fails"
    (Some "nondeterministic: same seed produced different audit logs")
    (S.determinism_failure a (hdr [ "#000 inject blk-read" ]));
  (* a wrapped ring voids the comparison: a failure that says why, never
     a silent pass *)
  match S.determinism_failure (hdr ~dropped:3 [ "#003 x" ]) (hdr [ "#004 y" ]) with
  | Some m ->
      Alcotest.(check bool) "carries the truncation note" true
        (starts_with ~prefix:(Option.get (S.truncation_note 3)) m)
  | None -> Alcotest.fail "wrapped ring passed silently"

(* A one-cell scenario over hand-built headers: the runner, not the
   scenario, finds the crash, the leak, the trace failure and the replay
   divergence. *)
let test_uniform_cell_checks () =
  let runs = ref 0 in
  let sc =
    {
      S.name = "probe"; bench = "probe"; doc = ""; default_seeds = 1; ok = "";
      pp = (fun _ _ -> ());
      aggregate = (fun _ -> ([], []));
      run_seed =
        (fun c ->
          S.cell c ~replay:true "cell" ~header:Fun.id (fun () ->
              incr runs;
              hdr ~crash:"boom" ~leaks:[ "disk block 3" ] ~trace:[ "t" ]
                [ string_of_int !runs ]));
    }
  in
  let v = S.run sc ~seeds:[ 5 ] in
  Alcotest.(check int) "replayed once" 2 !runs;
  Alcotest.(check (list string)) "every check fired, labelled"
    [ "seed 5: cell: uncaught exception: boom";
      "seed 5: cell: canary leaked to: disk block 3";
      "seed 5: cell: trace invariant: t";
      "seed 5: cell: nondeterministic: same seed produced different audit logs" ]
    v.failures;
  Alcotest.(check int) "red exit" 1 (S.exit_code v)

(* The BENCH schema: each scenario's one-seed document carries exactly the
   keys of its committed BENCH file (chaos commits none: CI runs it
   without --bench-out). *)
let keys = function Report.Obj fields -> List.map fst fields | _ -> []

let test_bench_schema () =
  let committed bench = keys (Report.load ~path:("../BENCH_" ^ bench ^ ".json")) in
  List.iter
    (fun bench ->
      let (S.Any sc) =
        List.find (fun (S.Any sc) -> sc.S.bench = bench) Harness.scenarios
      in
      let v = S.run sc ~seeds:[ 1 ] in
      Alcotest.(check (list string)) (bench ^ " keys") (committed bench)
        (keys (S.bench_doc ~name:bench ~wall_s:0.0 ~failures:v.failures v.metrics)))
    [ "recovery"; "availability"; "migration"; "fleet"; "adversary" ];
  let r = Harness.Observe.run () in
  Alcotest.(check (list string)) "telemetry keys" (committed "telemetry")
    (keys (S.bench_doc ~name:"telemetry" ~wall_s:0.0 ~failures:r.o_failures r.o_metrics))

let () =
  Alcotest.run "chaos"
    [
      ( "invariants",
        [
          Alcotest.test_case "30 seeded fault plans" `Slow test_invariants;
          Alcotest.test_case "plans exercise the stack" `Slow
            test_chaos_exercises_containment;
          Alcotest.test_case "audit replay is exact" `Quick
            test_determinism_audit_exact;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
        ] );
      ( "containment",
        [
          Alcotest.test_case "transient IO retried" `Quick test_transient_io_retried;
          Alcotest.test_case "persistent IO is EIO" `Quick test_persistent_io_is_eio;
          Alcotest.test_case "exhaustion is ENOMEM" `Quick test_exhaustion_is_enomem;
          Alcotest.test_case "syscall-path security fault contained" `Quick
            test_syscall_path_containment;
        ] );
      ( "runner",
        [
          Alcotest.test_case "replay rule on hand-built pairs" `Quick test_replay_rule;
          Alcotest.test_case "uniform cell checks" `Quick test_uniform_cell_checks;
          Alcotest.test_case "BENCH keys = committed files" `Slow test_bench_schema;
        ] );
    ]
