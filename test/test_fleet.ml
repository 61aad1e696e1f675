(* Fleet supervision: the balancer policy (suspicion accrual, routing and
   the typed shed taxonomy, rejoin backoff), the migration session-key
   scrub-before-free lifecycle on the flight recorder, the harness
   subcommands' exit codes, and a short hostile fleet sweep. *)

let vconfig = { Cloak.Vmm.default_config with seed = 0xF1EE }

let bal ?threshold ?queue_bound ?rejoin_backoff hosts =
  Cloak.Balancer.create ~hosts ?threshold ?queue_bound ?rejoin_backoff ()

let check_state what expected b i =
  Alcotest.(check string) what
    (Cloak.Balancer.state_to_string expected)
    (Cloak.Balancer.state_to_string (Cloak.Balancer.state b i))

(* --- suspicion accrual and the Suspect latch --- *)

let test_suspicion_accrues_and_recovers () =
  let b = bal 2 in
  Alcotest.(check (float 1e-9)) "fresh host carries no suspicion" 0.0
    (Cloak.Balancer.suspicion b 0 ~now:0);
  Cloak.Balancer.missed_heartbeat b 0;
  Alcotest.(check bool) "one miss is below the default threshold" false
    (Cloak.Balancer.suspect b 0 ~now:0);
  check_state "still healthy" Cloak.Balancer.Healthy b 0;
  Cloak.Balancer.missed_heartbeat b 0;
  Alcotest.(check bool) "two misses cross it" true
    (Cloak.Balancer.suspect b 0 ~now:0);
  check_state "latched Suspect" Cloak.Balancer.Suspect b 0;
  check_state "the peer is untouched" Cloak.Balancer.Healthy b 1;
  (* a live beat clears the misses and recovers the state *)
  Cloak.Balancer.heartbeat b 0 ~now:10;
  check_state "heartbeat recovers Suspect" Cloak.Balancer.Healthy b 0;
  Alcotest.(check bool) "suspicion fell back under threshold" true
    (Cloak.Balancer.suspicion b 0 ~now:10 < Cloak.Balancer.threshold b)

let test_suspicion_overdue_term_capped () =
  let b = bal 1 in
  Cloak.Balancer.heartbeat b 0 ~now:0;
  Cloak.Balancer.heartbeat b 0 ~now:100;
  Alcotest.(check (float 1e-9)) "gap learned from the beats" 100.0
    (Cloak.Balancer.mean_gap b 0);
  Alcotest.(check (float 1e-9)) "on-time: no overdue evidence" 0.0
    (Cloak.Balancer.suspicion b 0 ~now:150);
  let s = Cloak.Balancer.suspicion b 0 ~now:280 in
  Alcotest.(check bool) "overdue accrues fractionally" true
    (s > 0.0 && s < 1.0);
  Alcotest.(check (float 1e-9))
    "a long silence is at most one beat of evidence" 1.0
    (Cloak.Balancer.suspicion b 0 ~now:100_000)

let test_suspicion_error_term_bounded () =
  let b = bal 1 in
  for _ = 1 to 8 do
    Cloak.Balancer.record_error b 0
  done;
  Alcotest.(check (float 1e-9)) "8 errors are half a unit" 0.5
    (Cloak.Balancer.suspicion b 0 ~now:0);
  for _ = 1 to 100 do
    Cloak.Balancer.record_error b 0
  done;
  Alcotest.(check (float 1e-9)) "the error term saturates at one unit" 1.0
    (Cloak.Balancer.suspicion b 0 ~now:0)

(* --- routing and the typed shed taxonomy --- *)

let test_route_least_loaded_deterministic () =
  let b = bal 3 in
  Cloak.Balancer.set_load b 0 2;
  Cloak.Balancer.set_load b 1 0;
  Cloak.Balancer.set_load b 2 1;
  (match Cloak.Balancer.route b with
  | Ok i -> Alcotest.(check int) "least-loaded wins" 1 i
  | Error _ -> Alcotest.fail "routable fleet shed a request");
  Cloak.Balancer.set_load b 1 1;
  match Cloak.Balancer.route b with
  | Ok i -> Alcotest.(check int) "lowest index breaks ties" 1 i
  | Error _ -> Alcotest.fail "routable fleet shed a request"

let test_shed_taxonomy () =
  let b = bal ~queue_bound:2 3 in
  (* every routable host at its bound: Overload *)
  for i = 0 to 2 do
    Cloak.Balancer.set_load b i 2
  done;
  (match Cloak.Balancer.route b with
  | Error Cloak.Balancer.Overload -> ()
  | Ok i -> Alcotest.failf "admitted beyond the bound at host %d" i
  | Error r ->
      Alcotest.failf "wrong shed: %s" (Cloak.Balancer.shed_to_string r));
  (* room exists, but only behind a draining host *)
  Cloak.Balancer.begin_drain b 1;
  Cloak.Balancer.set_load b 1 0;
  (match Cloak.Balancer.route b with
  | Error Cloak.Balancer.Draining_host -> ()
  | Ok i -> Alcotest.failf "routed to or around a draining host (%d)" i
  | Error r ->
      Alcotest.failf "wrong shed: %s" (Cloak.Balancer.shed_to_string r));
  (* nothing routable at all *)
  Cloak.Balancer.mark_dead b 0 ~now:0;
  Cloak.Balancer.mark_dead b 2 ~now:0;
  match Cloak.Balancer.route b with
  | Error Cloak.Balancer.No_capacity -> ()
  | Ok i -> Alcotest.failf "routed to a dead fleet (host %d)" i
  | Error r -> Alcotest.failf "wrong shed: %s" (Cloak.Balancer.shed_to_string r)

let test_reduced_service_halves_bound () =
  let b = bal ~queue_bound:6 3 in
  Alcotest.(check bool) "full fleet: full service" false
    (Cloak.Balancer.reduced_service b);
  Cloak.Balancer.set_load b 0 3;
  Cloak.Balancer.set_load b 1 3;
  Cloak.Balancer.set_load b 2 3;
  (match Cloak.Balancer.route b with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "load 3 of 6 must admit at full service");
  Cloak.Balancer.mark_dead b 2 ~now:0;
  Alcotest.(check bool) "losing a host flips reduced service" true
    (Cloak.Balancer.reduced_service b);
  Alcotest.(check int) "two hosts still serve" 2 (Cloak.Balancer.serving b);
  match Cloak.Balancer.route b with
  | Error Cloak.Balancer.Overload -> ()
  | Ok i -> Alcotest.failf "host %d admitted past the halved bound" i
  | Error r -> Alcotest.failf "wrong shed: %s" (Cloak.Balancer.shed_to_string r)

let test_rejoin_backoff () =
  let b = bal ~rejoin_backoff:10 2 in
  Cloak.Balancer.mark_dead b 0 ~now:0;
  Cloak.Balancer.set_load b 0 0;
  Cloak.Balancer.tick b ~now:9;
  check_state "backoff holds the corpse out" Cloak.Balancer.Dead b 0;
  Cloak.Balancer.tick b ~now:10;
  check_state "backoff expiry re-admits at reduced service"
    Cloak.Balancer.Rejoining b 0;
  Alcotest.(check int) "a rejoining host counts as serving" 2
    (Cloak.Balancer.serving b);
  Cloak.Balancer.tick b ~now:19;
  check_state "full trust needs another interval" Cloak.Balancer.Rejoining b 0;
  Cloak.Balancer.tick b ~now:20;
  check_state "good behaviour earns Healthy back" Cloak.Balancer.Healthy b 0;
  (* backoff 0 disables re-admission outright *)
  let b0 = bal 2 in
  Cloak.Balancer.mark_dead b0 1 ~now:0;
  Cloak.Balancer.tick b0 ~now:1_000_000;
  check_state "no backoff: a retired host stays Dead" Cloak.Balancer.Dead b0 1

let test_set_load_clamps () =
  let b = bal 1 in
  Cloak.Balancer.set_load b 0 5;
  Alcotest.(check int) "overwrites outright" 5 (Cloak.Balancer.load b 0);
  Cloak.Balancer.set_load b 0 (-3);
  Alcotest.(check int) "clamped at zero" 0 (Cloak.Balancer.load b 0)

(* --- the session key obeys scrub-before-free (satellite of the fleet
   failover path: every drain/rescue closes both endpoints) --- *)

let test_session_key_close_is_clean () =
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~trace () in
  let snd = Cloak.Migrate.sender vmm ~session:"scrub-snd" (Bytes.make 600 'x') in
  let rcv = Cloak.Migrate.receiver vmm ~session:"scrub-rcv" in
  Alcotest.(check bool) "sender key live until closed" false
    (Cloak.Migrate.sender_key_scrubbed snd);
  Cloak.Migrate.close_sender snd;
  Cloak.Migrate.close_receiver rcv;
  Alcotest.(check bool) "sender key scrubbed" true
    (Cloak.Migrate.sender_key_scrubbed snd);
  Alcotest.(check bool) "receiver key scrubbed" true
    (Cloak.Migrate.receiver_key_scrubbed rcv);
  Alcotest.(check (list string)) "scrub-before-free holds on the trace" []
    (Trace.Check.verdict trace);
  (* close is idempotent: teardown paths may race COMMIT/ABORT handling *)
  Cloak.Migrate.close_sender snd;
  Cloak.Migrate.close_receiver rcv;
  Alcotest.(check (list string)) "double close stays clean" []
    (Trace.Check.verdict trace)

let expect_scrub_violation what verdict =
  match verdict with
  | [] -> Alcotest.failf "%s: dropping an unscrubbed key went unreported" what
  | fails ->
      Alcotest.(check bool)
        (what ^ ": flagged as a free-while-holding-plaintext")
        true
        (List.exists
           (fun f ->
             let has needle =
               let nl = String.length needle and fl = String.length f in
               let rec at i = i + nl <= fl && (String.sub f i nl = needle || at (i + 1)) in
               at 0
             in
             has "freed while holding")
           fails)

let test_sender_key_drop_without_scrub_flagged () =
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~trace () in
  let snd = Cloak.Migrate.sender vmm ~session:"leaky-snd" (Bytes.make 600 'x') in
  Cloak.Migrate.drop_sender snd;
  expect_scrub_violation "sender" (Trace.Check.verdict trace)

let test_receiver_key_drop_without_scrub_flagged () =
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~trace () in
  let rcv = Cloak.Migrate.receiver vmm ~session:"leaky-rcv" in
  Cloak.Migrate.drop_receiver rcv;
  expect_scrub_violation "receiver" (Trace.Check.verdict trace)

(* --- every harness subcommand's exit code tracks its verdict --- *)

module S = Harness.Scenario

(* A green one-seed verdict exits 0, and the same seeds carrying one more
   failure (from any cell) exit 1. *)
let check_exit_code sc seed =
  let v = S.run sc ~seeds:[ seed ] in
  Alcotest.(check (list string)) "green verdict" [] v.failures;
  Alcotest.(check int) "green verdict exits 0" 0 (S.exit_code v);
  let failed = List.map (fun (s : _ S.seed) -> { s with failures = [ "boom" ] }) v.seeds in
  Alcotest.(check int) "any failure exits 1" 1 (S.exit_code (S.summarize sc failed));
  v

let test_chaos_exit_code () = ignore (check_exit_code Harness.Chaos.scenario 1)

let test_soak_exit_code () =
  (* seed 150465's plan restarts the service under supervision and kills
     the unsupervised baseline early, so the strict-win clause holds on a
     single seed *)
  let v = check_exit_code Harness.Soak.scenario 150465 in
  let tie =
    List.map
      (fun (s : _ S.seed) ->
        { s with report = { s.report with Harness.Soak.units_sup = s.report.Harness.Soak.units_unsup } })
      v.seeds
  in
  Alcotest.(check int) "a goodput tie is not a win" 1
    (S.exit_code (S.summarize Harness.Soak.scenario tie))

let test_migrate_exit_code () =
  (* the first seed of a sweep also runs the channel-site crash matrix,
     so its cells are inside the green verdict *)
  let v = check_exit_code Harness.Migrate.scenario 7 in
  Alcotest.(check bool) "crash matrix ran" true (S.int v "crash_points" > 0)

let test_fleet_exit_code () = ignore (check_exit_code Harness.Fleet.scenario 1)

(* --- the fleet sweep: supervision wins, exactly-once failover --- *)

let fleet_seeds = S.seeds_from ~base:1 ~count:3

let test_fleet_invariants () =
  let v = S.run Harness.Fleet.scenario ~seeds:fleet_seeds in
  Alcotest.(check (list string)) "no invariant failures" [] v.failures;
  Alcotest.(check int) "all seeds ran" (List.length fleet_seeds) (S.int v "seeds");
  (* each seed's hostile and blackhole runs both kill a host *)
  Alcotest.(check bool) "the antagonist drew blood" true
    (S.int v "deaths" >= 2 * List.length fleet_seeds);
  Alcotest.(check bool) "failovers committed" true (S.int v "failovers" >= 1);
  Alcotest.(check int) "no failover ever resumed twice" 0 (S.int v "double_resumes");
  Alcotest.(check bool) "fault-free SLO: >= 99% within budget" true
    (S.float v "ff_budget_pct_worst" >= 99.0);
  (* the acceptance bar: the supervised fleet strictly out-serves the
     same arrivals with no supervisor *)
  Alcotest.(check bool) "supervised goodput strictly beats unsupervised" true
    (S.int v "goodput_supervised" > S.int v "goodput_unsupervised");
  (* every shed is typed: the taxonomy accounts for each rejection *)
  List.iter
    (fun (s : Harness.Fleet.seed_report S.seed) ->
      let r = s.report in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: typed reasons cover every shed" s.seed)
        r.sheds
        (r.sheds_overload + r.sheds_draining + r.sheds_no_capacity))
    v.seeds

let () =
  Alcotest.run "fleet"
    [
      ( "balancer-suspicion",
        [
          Alcotest.test_case "misses accrue, heartbeat recovers" `Quick
            test_suspicion_accrues_and_recovers;
          Alcotest.test_case "overdue term capped at one beat" `Quick
            test_suspicion_overdue_term_capped;
          Alcotest.test_case "error term saturates" `Quick
            test_suspicion_error_term_bounded;
        ] );
      ( "balancer-routing",
        [
          Alcotest.test_case "least-loaded, deterministic ties" `Quick
            test_route_least_loaded_deterministic;
          Alcotest.test_case "shed taxonomy" `Quick test_shed_taxonomy;
          Alcotest.test_case "reduced service halves the bound" `Quick
            test_reduced_service_halves_bound;
          Alcotest.test_case "rejoin backoff" `Quick test_rejoin_backoff;
          Alcotest.test_case "set_load clamps" `Quick test_set_load_clamps;
        ] );
      ( "session-key-scrub",
        [
          Alcotest.test_case "close scrubs both endpoints" `Quick
            test_session_key_close_is_clean;
          Alcotest.test_case "sender drop without scrub flagged" `Quick
            test_sender_key_drop_without_scrub_flagged;
          Alcotest.test_case "receiver drop without scrub flagged" `Quick
            test_receiver_key_drop_without_scrub_flagged;
        ] );
      ( "exit-codes",
        [
          Alcotest.test_case "chaos" `Slow test_chaos_exit_code;
          Alcotest.test_case "soak" `Slow test_soak_exit_code;
          Alcotest.test_case "migrate" `Slow test_migrate_exit_code;
          Alcotest.test_case "fleet" `Slow test_fleet_exit_code;
        ] );
      ( "sweep",
        [ Alcotest.test_case "3-seed hostile fleet" `Slow test_fleet_invariants ] );
    ]
