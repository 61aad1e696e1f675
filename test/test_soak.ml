(* Supervision & availability: the retry policy, sealed-checkpoint
   freshness (the stale-restore attack), restart-aware recovery, the
   bounded audit ring, and the full soak invariants over 20 seeds. *)

open Machine
open Guest

(* --- the shared retry helper (qcheck) --- *)

exception Flaky
exception Worn_out

(* Run [with_backoff] against a function that fails [fail_times] before
   succeeding; report the outcome, the charges in order, and how often the
   body actually ran. *)
let run_retry ~limit ~fail_times =
  let charges = ref [] in
  let runs = ref 0 in
  let outcome =
    try
      Ok
        (Retry.with_backoff ~limit
           ~retryable:(function Flaky -> true | _ -> false)
           ~charge:(fun ~cycles -> charges := cycles :: !charges)
           ~base_cost:100 ~exhausted:Worn_out
           (fun () ->
             incr runs;
             if !runs <= fail_times then raise Flaky;
             !runs))
    with Worn_out -> Error `Exhausted
  in
  (outcome, List.rev !charges, !runs)

let retry_params =
  QCheck.(pair (int_range 0 6) (int_range 0 20))

let prop_retry_attempts_bounded =
  QCheck.Test.make ~name:"retry: the body runs at most limit+1 times" ~count:200
    retry_params (fun (limit, fail_times) ->
      let _, _, runs = run_retry ~limit ~fail_times in
      runs <= limit + 1)

let prop_retry_backoff_increasing =
  QCheck.Test.make ~name:"retry: backoff charges strictly increase" ~count:200
    retry_params (fun (limit, fail_times) ->
      let _, charges, _ = run_retry ~limit ~fail_times in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      increasing charges)

let prop_retry_success_charges_exactly_k =
  QCheck.Test.make
    ~name:"retry: success after k failures charges exactly k backoffs" ~count:200
    retry_params (fun (limit, fail_times) ->
      let outcome, charges, runs = run_retry ~limit ~fail_times in
      if fail_times <= limit then
        (* enough budget: the body succeeds on run k+1 having charged
           exactly the k doubling backoffs *)
        outcome = Ok (fail_times + 1)
        && runs = fail_times + 1
        && charges = List.init fail_times (fun a -> 100 * (1 lsl a))
      else
        (* budget exhausted: every permitted attempt failed and charged *)
        outcome = Error `Exhausted
        && runs = limit + 1
        && List.length charges = limit + 1)

let test_retry_non_retryable_propagates () =
  let ran = ref 0 in
  (match
     Retry.with_backoff ~limit:5
       ~retryable:(function Flaky -> true | _ -> false)
       ~charge:(fun ~cycles:_ -> Alcotest.fail "charged a non-retryable failure")
       ~base_cost:10 ~exhausted:Worn_out
       (fun () ->
         incr ran;
         raise Exit)
   with
  | _ -> Alcotest.fail "Exit did not propagate"
  | exception Exit -> ());
  Alcotest.(check int) "no retry of a non-retryable exception" 1 !ran

(* --- Transfer.resume stays single-use across checkpoint/restore --- *)

let test_resume_single_use_across_restore () =
  let vmm = Cloak.Vmm.create () in
  let tr = Cloak.Transfer.create () in
  let regs = { Cloak.Transfer.pc = 7; sp = 99; gp = Array.init 8 (fun i -> 10 * i) } in
  let handle, _scrubbed =
    Cloak.Transfer.enter_kernel tr vmm ~asid:1 ~tid:0 ~regs ~exposed:[| 1; 2 |]
  in
  (* a restored incarnation resumes from the checkpoint's register image,
     which is a deep copy — mutating it must not reach the sealed image *)
  let restored = Cloak.Transfer.copy_regs regs in
  restored.gp.(0) <- 4242;
  Alcotest.(check int) "checkpointed registers are a deep copy" 0 regs.gp.(0);
  let back = Cloak.Transfer.resume tr vmm ~asid:1 ~tid:0 ~handle in
  Alcotest.(check bool) "genuine context round-trips" true
    (Cloak.Transfer.equal_regs regs back);
  (* the handle was consumed: replaying it (e.g. against the respawned
     incarnation, which reuses the pid/asid) must be refused *)
  (match Cloak.Transfer.resume tr vmm ~asid:1 ~tid:0 ~handle with
  | _ -> Alcotest.fail "second resume of a consumed handle was served"
  | exception Cloak.Violation.Security_fault v ->
      Alcotest.(check bool) "replay is Bad_resume" true
        (v.Cloak.Violation.kind = Cloak.Violation.Bad_resume));
  (* ...and a context saved by the dead incarnation, discarded at teardown,
     is gone for good *)
  let handle2, _ =
    Cloak.Transfer.enter_kernel tr vmm ~asid:1 ~tid:0 ~regs ~exposed:[||]
  in
  Cloak.Transfer.discard tr ~asid:1 ~tid:0;
  (match Cloak.Transfer.resume tr vmm ~asid:1 ~tid:0 ~handle:handle2 with
  | _ -> Alcotest.fail "resume of a discarded context was served"
  | exception Cloak.Violation.Security_fault v ->
      Alcotest.(check bool) "discarded context is Bad_resume" true
        (v.Cloak.Violation.kind = Cloak.Violation.Bad_resume))

(* --- the stale-restore attack, deterministically --- *)

(* A supervised process that takes three explicit sealed checkpoints with
   distinct cloaked state. After the run the supervisor holds the last two
   blobs; a malicious OS replaying the older one must get
   [Stale_checkpoint], never the old state. *)
let checkpointer (env : Abi.env) =
  let u = Uapi.of_env env in
  let vpn = Uapi.mmap u ~pages:1 ~cloaked:true () in
  let sh = Oshim.Shim.install u in
  let base = Addr.vaddr_of_vpn vpn in
  for i = 1 to 3 do
    Uapi.store u ~vaddr:base (Bytes.of_string (Printf.sprintf "sealed-state-%04d" i));
    ignore (Oshim.Shim.checkpoint sh)
  done;
  Uapi.exit u 0

let run_checkpointer () =
  let vmm = Cloak.Vmm.create () in
  let k = Kernel.create vmm in
  let pid = Kernel.spawn_supervised k checkpointer in
  Kernel.run k;
  Alcotest.(check (option int)) "service exited cleanly" (Some 0)
    (Kernel.exit_status k ~pid);
  let stats =
    match Kernel.supervision_stats k ~pid with
    | Some s -> s
    | None -> Alcotest.fail "no supervision stats for a supervised pid"
  in
  (vmm, stats)

let test_stale_restore_refused () =
  let vmm, stats = run_checkpointer () in
  Alcotest.(check int) "three checkpoints sealed" 3 stats.Kernel.sup_checkpoints;
  let last =
    match stats.Kernel.sup_last_checkpoint with
    | Some b -> b
    | None -> Alcotest.fail "no last checkpoint"
  in
  let prev =
    match stats.Kernel.sup_prev_checkpoint with
    | Some b -> b
    | None -> Alcotest.fail "no previous checkpoint"
  in
  (* the previous blob authenticates fine — and must still be refused *)
  (match Cloak.Seal.unseal vmm prev with
  | _ -> Alcotest.fail "stale checkpoint was silently served"
  | exception Cloak.Violation.Security_fault v ->
      Alcotest.(check bool) "refused as stale, not as forged" true
        (v.Cloak.Violation.kind = Cloak.Violation.Stale_checkpoint));
  (* the latest blob still unseals *)
  let restored = Cloak.Seal.unseal vmm last in
  Alcotest.(check bool) "latest generation unseals" true
    (restored.Cloak.Seal.gen > 0)

let test_tampered_checkpoint_refused () =
  let vmm, stats = run_checkpointer () in
  let last =
    match stats.Kernel.sup_last_checkpoint with
    | Some b -> b
    | None -> Alcotest.fail "no last checkpoint"
  in
  let tampered = Bytes.copy last in
  let i = Bytes.length tampered / 2 in
  Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 0x40));
  match Cloak.Seal.unseal vmm tampered with
  | _ -> Alcotest.fail "tampered checkpoint was accepted"
  | exception Cloak.Violation.Security_fault v ->
      Alcotest.(check bool) "tampering is Metadata_forged" true
        (v.Cloak.Violation.kind = Cloak.Violation.Metadata_forged)

(* --- supervised restart actually recovers the work --- *)

(* Seed 150465's plan carries lethal recurring rules that kill the
   service repeatedly mid-run; under supervision it must still finish
   every unit, from sealed checkpoints, without tripping any invariant,
   while the unsupervised baseline dies almost immediately. *)
let test_restart_recovers_state () =
  let s = Harness.Scenario.run_one Harness.Soak.scenario ~seed:150465 in
  let r = s.report in
  Alcotest.(check (list string)) "all soak invariants hold" [] s.failures;
  Alcotest.(check bool) "the plan killed the service at least once" true
    (r.Harness.Soak.restarts >= 1);
  Alcotest.(check int) "every unit of work completed" Harness.Soak.rounds
    r.Harness.Soak.units_sup;
  Alcotest.(check bool) "unsupervised baseline died early" true
    (r.Harness.Soak.units_unsup < Harness.Soak.rounds)

(* --- the bounded audit ring --- *)

let test_audit_ring_cap () =
  let a = Inject.Audit.create ~cap:8 () in
  for i = 0 to 19 do
    Inject.Audit.record a "line %d" i
  done;
  Alcotest.(check int) "count totals every record" 20 (Inject.Audit.count a);
  Alcotest.(check int) "evictions counted" 12 (Inject.Audit.dropped a);
  let l = Inject.Audit.lines a in
  Alcotest.(check int) "retained window is the cap" 8 (List.length l);
  Alcotest.(check string) "oldest retained line" "#012 line 12" (List.hd l);
  Alcotest.(check string) "newest retained line" "#019 line 19"
    (List.nth l 7)

let test_audit_ring_window_deterministic () =
  let fill () =
    let a = Inject.Audit.create ~cap:16 () in
    for i = 0 to 99 do
      Inject.Audit.record a "event %d flavour %s" i (if i mod 3 = 0 then "x" else "y")
    done;
    a
  in
  let a = fill () and b = fill () in
  Alcotest.(check (list string)) "identical runs retain identical windows"
    (Inject.Audit.lines a) (Inject.Audit.lines b);
  Alcotest.(check int) "identical dropped counts" (Inject.Audit.dropped a)
    (Inject.Audit.dropped b)

(* --- the full soak: 20 seeds, all three invariants, strict win --- *)

let soak_seeds = Harness.Scenario.seeds_from ~base:1 ~count:20

let test_soak_invariants () =
  let module S = Harness.Scenario in
  let v = S.run Harness.Soak.scenario ~seeds:soak_seeds in
  Alcotest.(check (list string)) "no invariant failures" [] v.failures;
  Alcotest.(check int) "all seeds ran" (List.length soak_seeds) (S.int v "seeds");
  Alcotest.(check bool) "the plans actually restarted the service" true
    (S.int v "restarts" > 0);
  Alcotest.(check bool) "checkpoints were sealed" true (S.int v "checkpoints" > 0);
  (* the acceptance bar: supervision strictly beats its absence *)
  Alcotest.(check bool) "supervised useful work strictly exceeds unsupervised"
    true
    (S.int v "units_supervised" > S.int v "units_unsupervised")

let () =
  Alcotest.run "soak"
    [
      ( "retry",
        [
          Qseed.to_alcotest prop_retry_attempts_bounded;
          Qseed.to_alcotest prop_retry_backoff_increasing;
          Qseed.to_alcotest prop_retry_success_charges_exactly_k;
          Alcotest.test_case "non-retryable propagates" `Quick
            test_retry_non_retryable_propagates;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "resume single-use across restore" `Quick
            test_resume_single_use_across_restore;
          Alcotest.test_case "stale restore refused" `Quick test_stale_restore_refused;
          Alcotest.test_case "tampered checkpoint refused" `Quick
            test_tampered_checkpoint_refused;
          Alcotest.test_case "restart recovers the work" `Slow
            test_restart_recovers_state;
        ] );
      ( "audit-ring",
        [
          Alcotest.test_case "cap and dropped counter" `Quick test_audit_ring_cap;
          Alcotest.test_case "retained window deterministic" `Quick
            test_audit_ring_window_deterministic;
        ] );
      ( "availability",
        [ Alcotest.test_case "20-seed soak" `Slow test_soak_invariants ] );
    ]
