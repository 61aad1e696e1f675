(* Retry.with_backoff edge cases: a zero deadline, behaviour exactly at
   the deadline boundary (with and without jitter), and the deadline
   racing the final permitted attempt. The mainline policy properties
   (attempt bound, doubling charges, exactly-k accounting) live in
   test_soak.ml; this file pins the corners the migration and fleet
   drivers lean on. *)

open Guest

exception Flaky
exception Worn_out

(* Run [with_backoff] against a body that fails [fail_times] before
   succeeding (infinitely when [fail_times] is negative); report the
   outcome, the charges in order, and how often the body ran. *)
let run ?deadline_cycles ?jitter ?(base_cost = 100) ?(fail_times = -1) ~limit ()
    =
  let charges = ref [] in
  let runs = ref 0 in
  let outcome =
    try
      Ok
        (Retry.with_backoff ?deadline_cycles ?jitter ~limit
           ~retryable:(function Flaky -> true | _ -> false)
           ~charge:(fun ~cycles -> charges := cycles :: !charges)
           ~base_cost ~exhausted:Worn_out
           (fun () ->
             incr runs;
             if fail_times < 0 || !runs <= fail_times then raise Flaky;
             !runs))
    with Worn_out -> Error `Exhausted
  in
  (outcome, List.rev !charges, !runs)

let sum = List.fold_left ( + ) 0

(* --- deadline_cycles = 0 --- *)

(* A zero budget still permits the first attempt: the deadline is only
   consulted after a failure has been charged. With a positive base cost
   that first charge already overspends, so exactly one run happens no
   matter how many retries [limit] would allow. *)
let test_zero_deadline_one_attempt () =
  let outcome, charges, runs = run ~deadline_cycles:0 ~limit:5 () in
  Alcotest.(check bool) "exhausted" true (outcome = Error `Exhausted);
  Alcotest.(check int) "a single run" 1 runs;
  Alcotest.(check (list int)) "the failure was still charged" [ 100 ] charges

(* ...and a success on the first attempt never consults the deadline at
   all: no failure, no charge, no exhaustion. *)
let test_zero_deadline_free_success () =
  let outcome, charges, runs = run ~deadline_cycles:0 ~limit:0 ~fail_times:0 () in
  Alcotest.(check bool) "succeeded" true (outcome = Ok 1);
  Alcotest.(check int) "one run" 1 runs;
  Alcotest.(check (list int)) "nothing charged" [] charges

(* Zero-cost retries never overspend a zero deadline (spent stays 0,
   which is not strictly past 0), so exhaustion falls back to the attempt
   limit — the deadline comparison is strict, not >=. *)
let test_zero_deadline_zero_cost_exhausts_by_limit () =
  let outcome, charges, runs =
    run ~deadline_cycles:0 ~base_cost:0 ~limit:4 ()
  in
  Alcotest.(check bool) "exhausted by the limit" true
    (outcome = Error `Exhausted);
  Alcotest.(check int) "every permitted attempt ran" 5 runs;
  Alcotest.(check (list int)) "five zero charges" [ 0; 0; 0; 0; 0 ] charges

(* --- the deadline boundary --- *)

(* Landing exactly on the deadline is within budget: with doubling
   charges 100, 200, 400... a 300-cycle deadline is spent to the cycle
   after two failures and still buys the third attempt; only the next
   failure's charge crosses it. One cycle less and the second failure
   already overspends. *)
let test_boundary_exact_spend_continues () =
  let outcome, charges, runs = run ~deadline_cycles:300 ~limit:10 () in
  Alcotest.(check bool) "exhausted" true (outcome = Error `Exhausted);
  Alcotest.(check int) "spent == deadline bought one more attempt" 3 runs;
  Alcotest.(check (list int)) "charged through the crossing failure"
    [ 100; 200; 400 ] charges;
  let _, _, runs' = run ~deadline_cycles:299 ~limit:10 () in
  Alcotest.(check int) "one cycle less stops a failure earlier" 2 runs'

(* Jitter widens each charge to [backoff, 2*backoff) but must not change
   the boundary rule: every charge except the last left the total within
   the deadline, and the whole schedule is reproducible from the PRNG
   seed. *)
let test_boundary_with_jitter_deterministic () =
  let go () =
    run ~jitter:(Oscrypto.Prng.create ~seed:0xBEEF) ~deadline_cycles:500
      ~limit:10 ()
  in
  let outcome, charges, runs = go () in
  Alcotest.(check bool) "exhausted" true (outcome = Error `Exhausted);
  Alcotest.(check int) "one run per charge" (List.length charges) runs;
  List.iteri
    (fun a c ->
      let base = 100 * (1 lsl a) in
      Alcotest.(check bool)
        (Printf.sprintf "charge %d in [backoff, 2*backoff)" a)
        true
        (c >= base && c < 2 * base))
    charges;
  (match List.rev charges with
  | last :: earlier ->
      Alcotest.(check bool) "only the final charge crossed the deadline" true
        (sum earlier <= 500 && sum earlier + last > 500)
  | [] -> Alcotest.fail "no charges recorded");
  let _, charges', _ = go () in
  Alcotest.(check (list int)) "same seed, same jittered schedule" charges
    charges'

(* --- the deadline racing the final permitted attempt --- *)

(* limit = 2 permits three runs charging 100 + 200 + 400 = 700 in total.
   Sweeping the deadline across that schedule must shift where Worn_out
   fires without ever double-raising or granting a fourth run:
   - 250 < 300: the second failure overspends, the final permitted
     attempt is never taken;
   - 699: the last permitted failure crosses the deadline at the same
     moment the attempt limit trips — one Worn_out, three runs;
   - 700: the budget exactly covers the schedule and exhaustion is by
     attempts alone, indistinguishable from no deadline at all. *)
let test_deadline_races_final_attempt () =
  let runs_with deadline =
    let outcome, _, runs = run ~deadline_cycles:deadline ~limit:2 () in
    Alcotest.(check bool)
      (Printf.sprintf "deadline %d exhausts" deadline)
      true
      (outcome = Error `Exhausted);
    runs
  in
  Alcotest.(check int) "tight deadline preempts the final attempt" 2
    (runs_with 250);
  Alcotest.(check int) "deadline and limit tripping together" 3
    (runs_with 699);
  Alcotest.(check int) "exact budget defers to the attempt limit" 3
    (runs_with 700);
  let no_deadline = run ~limit:2 () in
  let exact = run ~deadline_cycles:700 ~limit:2 () in
  Alcotest.(check bool) "exact budget is byte-identical to no deadline" true
    (no_deadline = exact)

let test_negative_deadline_rejected () =
  match run ~deadline_cycles:(-1) ~limit:1 () with
  | _ -> Alcotest.fail "negative deadline accepted"
  | exception Invalid_argument _ -> ()

(* --- properties: the strict-crossing rule under arbitrary budgets --- *)

(* However limit, base cost and deadline combine: the body never runs
   more than limit+1 times, and every charge but the last fit within the
   deadline (exhaustion fires at the first strict crossing, never
   later). *)
let prop_first_crossing =
  QCheck.Test.make
    ~name:"retry: deadline exhausts at the first strict crossing" ~count:300
    QCheck.(
      triple (int_range 0 6) (int_range 0 50) (int_range 0 2000))
    (fun (limit, base_cost, deadline) ->
      let _, charges, runs = run ~deadline_cycles:deadline ~base_cost ~limit () in
      let rec prefixes_ok spent = function
        | [] | [ _ ] -> true
        | c :: rest -> spent + c <= deadline && prefixes_ok (spent + c) rest
      in
      runs <= limit + 1 && runs = List.length charges && prefixes_ok 0 charges)

let prop_jitter_never_shrinks =
  QCheck.Test.make
    ~name:"retry: jitter only lengthens backoffs, within one doubling"
    ~count:300
    QCheck.(pair (int_range 0 6) small_int)
    (fun (limit, seed) ->
      let _, charges, _ =
        run ~jitter:(Oscrypto.Prng.create ~seed) ~base_cost:7 ~limit ()
      in
      List.for_all2
        (fun a c ->
          let base = 7 * (1 lsl a) in
          c >= base && c < 2 * base)
        (List.init (List.length charges) Fun.id)
        charges)

let () =
  Alcotest.run "retry"
    [
      ( "zero-deadline",
        [
          Alcotest.test_case "one attempt, still charged" `Quick
            test_zero_deadline_one_attempt;
          Alcotest.test_case "success never consults it" `Quick
            test_zero_deadline_free_success;
          Alcotest.test_case "zero-cost retries exhaust by limit" `Quick
            test_zero_deadline_zero_cost_exhausts_by_limit;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "spent == deadline buys one more attempt" `Quick
            test_boundary_exact_spend_continues;
          Alcotest.test_case "jittered boundary, deterministic" `Quick
            test_boundary_with_jitter_deterministic;
          Alcotest.test_case "negative deadline rejected" `Quick
            test_negative_deadline_rejected;
        ] );
      ( "race",
        [
          Alcotest.test_case "deadline vs final permitted attempt" `Quick
            test_deadline_races_final_attempt;
        ] );
      ( "properties",
        [
          Qseed.to_alcotest prop_first_crossing;
          Qseed.to_alcotest prop_jitter_never_shrinks;
        ] );
    ]
