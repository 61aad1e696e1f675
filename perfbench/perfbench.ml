(* The repository benchmark: one workload per invocation, two clocks.

     perfbench --workload compute|syscall_io|paging|fleet
               --seed N --seconds S --trace 0|1

   With --trace 0 it sets up, repeats the workload's batch untraced for S
   seconds, checks every output and prints the end-to-end metrics. With
   --trace 1 it repeats the batch untraced, then traced on the model clock
   and on the host clock, and prints the per-layer metrics. Either way the
   last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   The process exits 1 if any output check failed. *)

open Machine

(* --- metric tables: names and units, in print order --- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("alloc_mwords", "Mwords");
    ("peak_heap_mb", "MiB");
    ("model_mcycles", "Mcy");
    ("goodput_pct", "%");
    ("latency_p50_kcy", "kcy");
    ("latency_p95_kcy", "kcy");
  ]

let span_kinds =
  Trace.
    [
      World_switch; Hypercall; Shadow_fill; Shadow_walk; Hidden_fault; Guest_fault;
      Page_encrypt; Page_decrypt; Syscall; Syscall_trap; Disk_read; Disk_write;
      Seal_capture; Seal_restore; Journal_append; Journal_ckpt; Migration;
    ]

let span_names = List.map Trace.kind_name span_kinds @ [ "outside" ]

let per_layer =
  [
    ("machine.tlb_hits", "count");
    ("machine.tlb_misses", "count");
    ("machine.tlb_hit_ratio", "ratio");
    ("machine.shadow_walks", "count");
    ("vmm.world_switches", "count");
    ("vmm.hypercalls", "count");
    ("vmm.hidden_faults", "count");
    ("vmm.guest_faults", "count");
    ("vmm.violations", "count");
    ("vmm.quarantines", "count");
    ("crypto.page_encryptions", "count");
    ("crypto.page_decryptions", "count");
    ("crypto.clean_reencryptions", "count");
    ("crypto.hash_checks", "count");
    ("crypto.clean_reencrypt_ratio", "ratio");
    ("crypto.aes_page_us", "us");
    ("crypto.hmac_page_us", "us");
    ("crypto.sha256_page_us", "us");
    ("kernel.syscalls", "count");
    ("kernel.context_switches", "count");
    ("kernel.syscall_host_us_p50", "us");
    ("kernel.syscall_host_us_p99", "us");
    ("shim.bytes_copied", "bytes");
    ("blockdev.disk_reads", "count");
    ("blockdev.disk_writes", "count");
    ("blockdev.io_retries", "count");
    ("migrate.encode_us", "us");
    ("migrate.decode_us", "us");
    ("fleet.deaths", "count");
    ("fleet.drains", "count");
    ("fleet.failovers", "count");
    ("fleet.lost", "count");
    ("fleet.hb_timeouts", "count");
    ("balancer.sheds_overload", "count");
    ("balancer.sheds_draining", "count");
    ("balancer.sheds_no_capacity", "count");
    ("balancer.admit_ratio", "ratio");
    ("telemetry.samples", "count");
    ("telemetry.spans", "count");
    ("telemetry.stitched", "count");
    ("sim.host_ns_per_kcycle", "ns/kcy");
    ("sim.tracing_overhead_pct", "%");
    ("cloak_overhead_pct", "%");
    ("failover_downtime_kcy", "kcy");
    ("failed_ops_frac", "ratio");
    ("latency_samples", "count");
  ]
  @ List.concat_map
      (fun k -> [ ("span." ^ k ^ ".self_mcy", "Mcy"); ("span." ^ k ^ ".self_host_ms", "ms") ])
      span_names

(* --- command line --- *)

let workloads = [ "compute"; "syscall_io"; "paging"; "fleet" ]

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (inputs are drawn from it)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* --- bookkeeping shared by every workload --- *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace metrics name v
let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "CHECK FAILED: %s\n%!" name
  end

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Run [f] once, returning its result, host ns and words allocated. Each
   measured run starts from a collected heap, so the GC work inside it and
   the peak heap do not depend on what ran before. *)
let measure f =
  Gc.full_major ();
  let a0 = allocated_words () in
  let r, ns = Stats.timed f in
  (r, ns, allocated_words () -. a0)

(* Repeat [rep] until [seconds] of host time have passed (at least once). *)
let repeat_for seconds rep =
  let t0 = Stats.now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  while !n = 0 || Stats.now_ns () - t0 < budget do
    rep !n;
    incr n
  done;
  !n

(* Per-label sample lists, for medians over repetitions. *)
let samples () : (string, float list) Hashtbl.t = Hashtbl.create 16

let add_sample tbl label v =
  Hashtbl.replace tbl label (v :: Option.value ~default:[] (Hashtbl.find_opt tbl label))

let sum_medians tbl = Hashtbl.fold (fun _ l acc -> acc +. Stats.median l) tbl 0.0

(* Every repetition of a run must reproduce the first one exactly. *)
let repeats first label fp =
  match Hashtbl.find_opt first label with
  | None -> Hashtbl.add first label fp
  | Some fp0 -> check (label ^ ": repeats its first run exactly") (fp = fp0)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let setup_rounds = 7

(* Set-up is timed [setup_rounds] times, each from a collected heap, and
   reported as the median: input generation from the seed, one bare stack,
   and a warm-up run of the batch's first op (the first in-process run
   pays heap growth the timed section must not see). *)
let timed_setup ~kconfig ~prepare ~warm_up =
  let times =
    List.init setup_rounds (fun _ ->
        Gc.full_major ();
        let inputs, ns =
          Stats.timed (fun () ->
              let inputs = prepare () in
              let vmm = Cloak.Vmm.create () in
              ignore (Guest.Kernel.create ?config:kconfig vmm);
              warm_up inputs;
              inputs)
        in
        (inputs, float_of_int ns /. 1e9))
  in
  set "setup_s" (Stats.median (List.map snd times));
  fst (List.hd times)

(* --- layer unit probes, called from outside the stack --- *)

(* Median per-call µs over 7 batches of about 20 ms each. *)
let probe_us f =
  let _, one = Stats.timed f in
  let n = max 1 (20_000_000 / max 1 one) in
  let batch () =
    let _, ns = Stats.timed (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done) in
    float_of_int ns /. float_of_int n /. 1e3
  in
  Stats.median (List.init 7 (fun _ -> batch ()))

let unit_probes () =
  let page = Bytes.init Addr.page_size (fun i -> Char.chr (i * 7 land 0xff)) in
  let key = Oscrypto.Aes.expand (Bytes.of_string "perfbench-aes-k!") in
  let iv = Bytes.make 16 '\x5a' in
  let mac_key = Bytes.of_string "perfbench-hmac-key-of-32-bytes!!" in
  set "crypto.aes_page_us" (probe_us (fun () -> Oscrypto.Aes.ctr_transform key ~iv page));
  set "crypto.hmac_page_us" (probe_us (fun () -> Oscrypto.Hmac.mac ~key:mac_key page));
  set "crypto.sha256_page_us" (probe_us (fun () -> Oscrypto.Sha256.digest page));
  let session = "perfbench" in
  let mkey = Cloak.Migrate.session_key (Cloak.Vmm.create ()) ~session in
  let payload = Bytes.sub page 0 Cloak.Migrate.default_chunk_size in
  let frame = Cloak.Migrate.Chunk { seq = 1; payload } in
  let wire = Cloak.Migrate.encode ~key:mkey ~session frame in
  check "migrate: a chunk frame decodes to itself"
    (match Cloak.Migrate.decode ~key:mkey ~session wire with
    | Ok (Cloak.Migrate.Chunk { seq = 1; payload = p }) -> Bytes.equal p payload
    | _ -> false);
  set "migrate.encode_us" (probe_us (fun () -> Cloak.Migrate.encode ~key:mkey ~session frame));
  set "migrate.decode_us" (probe_us (fun () -> Cloak.Migrate.decode ~key:mkey ~session wire))

(* --- stack workloads: compute, syscall_io, paging --- *)

open Scenarios

let run_failures = ref 0

(* Every exit status 0 and no cloaking violation. *)
let expect_ok label ok =
  incr attempted;
  if not ok then begin
    incr failed;
    incr run_failures;
    Printf.printf "RUN FAILED: %s\n%!" label
  end

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let overhead_pct ~native ~cloaked = 100.0 *. (ratio cloaked native -. 1.0)

let cycles_where pred runs =
  List.fold_left (fun acc (r : run) -> if pred r.cloaked then acc + r.result.cycles else acc) 0 runs

(* What must repeat exactly between runs of one op, traced or not. *)
let fingerprint (r : run) =
  ( r.result.cycles,
    Counters.to_assoc r.result.counters,
    r.checksum,
    r.result.exit_statuses,
    Stats.Ibuf.to_array r.probe.model_lat )

(* Run each op once under [mode]: check its outputs and that it repeats the
   first untraced run of the same op exactly. Returns each run with its
   host ns and words allocated. *)
let run_batch ~mode ~first ops =
  List.map
    (fun (o : op) ->
      let r, ns, words = measure (fun () -> o.exec mode) in
      expect_ok r.label (Harness.all_exited_zero r.result && r.result.violations = []);
      repeats first r.label (fingerprint r);
      (r, ns, words))
    ops

let twin_checks runs =
  List.iter
    (fun (r : run) ->
      if r.cloaked then
        let twin = String.sub r.label 0 (String.rindex r.label '/') ^ "/native" in
        match List.find_opt (fun (n : run) -> n.label = twin) runs with
        | Some n -> check (r.label ^ ": checksum equals the native twin's") (n.checksum = r.checksum)
        | None -> ())
    runs

let counter runs get =
  List.fold_left (fun acc (r : run) -> if r.cloaked then acc + get r.result.counters else acc) 0 runs

let layer_counts runs =
  let c get = counter runs get in
  let setc name get = set name (float_of_int (c get)) in
  let hits = c (fun c -> c.Counters.tlb_hits) and misses = c (fun c -> c.tlb_misses) in
  let enc = c (fun c -> c.page_encryptions) and clean = c (fun c -> c.clean_reencryptions) in
  set "machine.tlb_hit_ratio" (ratio hits (hits + misses));
  set "crypto.clean_reencrypt_ratio" (ratio clean (clean + enc));
  List.iter
    (fun (name, get) -> setc name get)
    Counters.
      [
        ("machine.tlb_hits", fun c -> c.tlb_hits);
        ("machine.tlb_misses", fun c -> c.tlb_misses);
        ("machine.shadow_walks", fun c -> c.shadow_walks);
        ("vmm.world_switches", fun c -> c.world_switches);
        ("vmm.hypercalls", fun c -> c.hypercalls);
        ("vmm.hidden_faults", fun c -> c.hidden_faults);
        ("vmm.guest_faults", fun c -> c.guest_faults);
        ("vmm.violations", fun c -> c.violations);
        ("vmm.quarantines", fun c -> c.quarantines);
        ("crypto.page_encryptions", fun c -> c.page_encryptions);
        ("crypto.page_decryptions", fun c -> c.page_decryptions);
        ("crypto.clean_reencryptions", fun c -> c.clean_reencryptions);
        ("crypto.hash_checks", fun c -> c.hash_checks);
        ("kernel.syscalls", fun c -> c.syscalls);
        ("kernel.context_switches", fun c -> c.context_switches);
        ("shim.bytes_copied", fun c -> c.bytes_copied);
        ("blockdev.disk_reads", fun c -> c.disk_reads);
        ("blockdev.disk_writes", fun c -> c.disk_writes);
        ("blockdev.io_retries", fun c -> c.io_retries);
      ]

(* Model latency of the protected processes' kernel round trips: each
   process's percentile, averaged over the processes. Pooling the samples
   instead would let the seed-dependent sample count of one process move
   the pooled rank across another process's latency cluster. *)
let latency_metrics runs =
  let per_run =
    List.filter_map
      (fun (r : run) ->
        let a = Stats.Ibuf.to_array r.probe.model_lat in
        if r.cloaked && Array.length a > 0 then Some a else None)
      runs
  in
  let mean_pct p =
    List.fold_left (fun acc a -> acc +. float_of_int (Stats.percentile_int a p)) 0.0 per_run
    /. float_of_int (List.length per_run)
  in
  set "latency_p50_kcy" (mean_pct 0.50 /. 1e3);
  set "latency_p95_kcy" (mean_pct 0.95 /. 1e3);
  set "latency_samples" (float_of_int (List.fold_left (fun acc a -> acc + Array.length a) 0 per_run))

(* The paper's ordering: pure compute pays less for cloaking than the
   syscall-heavy mix, whose buffers cross the cloak boundary. *)
let ordering_check ~syscall_io_overhead =
  let runs = List.map (fun (o : op) -> o.exec Untraced) (compute_ops ()) in
  let compute = overhead_pct ~native:(cycles_where not runs) ~cloaked:(cycles_where Fun.id runs) in
  Printf.printf "ordering: compute overhead %.2f%% vs syscall_io overhead %.2f%%\n" compute
    syscall_io_overhead;
  check "ordering: compute cloak_overhead_pct < syscall_io cloak_overhead_pct"
    (compute < syscall_io_overhead)

(* Fold one traced run's spans; [total] is the run's length on the same
   clock, so self times plus the outside remainder account for it. *)
let fold_run ~clock (r : run) ~total =
  match r.trace with
  | None -> invalid_arg "fold_run: untraced run"
  | Some (t, skip) ->
      check (Printf.sprintf "%s (%s clock): recorder dropped no events" r.label clock)
        (Trace.dropped t = 0);
      let s = Spans.of_trace ~skip t in
      check (Printf.sprintf "%s (%s clock): spans nest and fit the run" r.label clock)
        (s.unmatched = 0 && s.dangling = 0 && Spans.total_self s = s.covered && s.covered <= total);
      (s, total - s.covered)

let set_spans ~suffix ~scale (s : Spans.t) outside =
  List.iter
    (fun k -> set ("span." ^ Trace.kind_name k ^ suffix) (float_of_int (Spans.self s k) /. scale))
    span_kinds;
  set ("span.outside" ^ suffix) (float_of_int outside /. scale)

(* Per-layer half of a stack workload: the model-clock pass (once; the
   clock is deterministic) and host-clock passes until [deadline]. For
   each op the host pass whose traced wall is the median supplies the
   host self times, so its spans and its wall add up. *)
let traced_passes ~deadline ~first ops untraced_walls =
  let cloaked = List.filter (fun (o : op) -> o.cloaked) ops in
  let model = run_batch ~mode:Model_trace ~first cloaked in
  List.iter
    (fun ((r : run), _, _) ->
      match r.trace with
      | Some (t, _) -> check (r.label ^ ": trace invariants hold") (Trace.Check.verdict t = [])
      | None -> ())
    model;
  let folds =
    List.map (fun ((r : run), _, _) -> fold_run ~clock:"model" r ~total:r.result.cycles) model
  in
  set_spans ~suffix:".self_mcy" ~scale:1e6 (Spans.sum (List.map fst folds))
    (List.fold_left (fun acc (_, o) -> acc + o) 0 folds);
  let host = Hashtbl.create 8 in
  ignore
    (repeat_for
       (float_of_int (deadline - Stats.now_ns ()) /. 1e9)
       (fun _ ->
         List.iter
           (fun ((r : run), ns, _) ->
             let fold = fold_run ~clock:"host" r ~total:ns in
             add_sample host r.label (ns, fold, Stats.Ibuf.to_array r.probe.host_lat))
           (run_batch ~mode:Host_trace ~first cloaked)));
  let chosen =
    Hashtbl.fold
      (fun _ l acc ->
        let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) l in
        List.nth sorted ((List.length sorted - 1) / 2) :: acc)
      host []
  in
  set_spans ~suffix:".self_host_ms" ~scale:1e6
    (Spans.sum (List.map (fun (_, (s, _), _) -> s) chosen))
    (List.fold_left (fun acc (_, (_, o), _) -> acc + o) 0 chosen);
  let host_lat = Array.concat (List.map (fun (_, _, l) -> l) chosen) in
  set "kernel.syscall_host_us_p50" (float_of_int (Stats.percentile_int host_lat 0.50) /. 1e3);
  set "kernel.syscall_host_us_p99" (float_of_int (Stats.percentile_int host_lat 0.99) /. 1e3);
  let traced_wall = List.fold_left (fun acc (ns, _, _) -> acc + ns) 0 chosen in
  let untraced_wall =
    List.fold_left
      (fun acc (o : op) -> acc +. Stats.median (Hashtbl.find untraced_walls o.label))
      0.0 cloaked
  in
  set "sim.tracing_overhead_pct" (100.0 *. ((float_of_int traced_wall /. untraced_wall) -. 1.0))

let stack_workload args =
  let kconfig =
    if args.workload = "paging" then Some { Guest.Kernel.default_config with guest_pages = paging_pool }
    else None
  in
  let ops =
    timed_setup ~kconfig
      ~prepare:(fun () ->
        match args.workload with
        | "compute" -> compute_ops ()
        | "syscall_io" -> syscall_io_ops ~fileio_seed:(fileio_seed ~seed:args.seed)
        | _ -> paging_ops ~seed:args.seed)
      ~warm_up:(fun ops -> ignore ((List.hd ops).exec Untraced))
  in
  let t0 = Stats.now_ns () in
  let first = Hashtbl.create 16 in
  let walls = samples () and allocs = samples () in
  let runs = ref [] in
  let untraced_share = if args.trace then 0.4 else 1.0 in
  let reps =
    repeat_for (untraced_share *. args.seconds) (fun i ->
        let rs = run_batch ~mode:Untraced ~first ops in
        List.iter
          (fun ((r : run), ns, words) ->
            add_sample walls r.label (float_of_int ns);
            add_sample allocs r.label words)
          rs;
        if i = 0 then runs := List.map (fun (r, _, _) -> r) rs)
  in
  let runs = !runs in
  twin_checks runs;
  let cloaked_cycles = cycles_where Fun.id runs and native_cycles = cycles_where not runs in
  let overhead = overhead_pct ~native:native_cycles ~cloaked:cloaked_cycles in
  Printf.printf "%s: %d runs x %d repetitions; cloaked %d cy, native %d cy, overhead %.2f%%\n"
    args.workload (List.length ops) reps cloaked_cycles native_cycles overhead;
  set "peak_heap_mb" (peak_heap_mb ());
  if args.workload = "syscall_io" then ordering_check ~syscall_io_overhead:overhead;
  let ops_run = List.length ops * reps in
  set "wall_s" (sum_medians walls /. 1e9);
  set "alloc_mwords" (sum_medians allocs /. 1e6);
  set "model_mcycles" (float_of_int cloaked_cycles /. 1e6);
  set "goodput_pct" (100.0 *. float_of_int (ops_run - !run_failures) /. float_of_int ops_run);
  latency_metrics runs;
  set "cloak_overhead_pct" overhead;
  set "sim.host_ns_per_kcycle"
    (sum_medians walls /. (float_of_int (cloaked_cycles + native_cycles) /. 1e3));
  layer_counts runs;
  if args.trace then
    traced_passes ~deadline:(t0 + int_of_float (args.seconds *. 1e9)) ~first ops walls

(* --- fleet --- *)

let fleet_ok (r : Harness.Fleet.run) =
  r.r_crash = None && r.r_leaks = [] && r.r_trace_failures = [] && r.r_mech_failures = []
  && r.r_double_resumes = 0 && r.r_deaths >= 1

let fleet_fingerprint (r : Harness.Fleet.run) =
  let s = r.r_sup in
  ( (r.r_cycles, r.r_downtimes, r.r_deaths, r.r_failovers, r.r_lost, r.r_audit),
    (s.sim_arrivals, s.sim_admitted, s.sim_within_budget, s.sim_p50, s.sim_p95,
      Harness.Fleet.sheds_total s ) )

let fleet_workload args =
  let seeds =
    timed_setup ~kconfig:(Some Harness.Fleet.kconfig)
      ~prepare:(fun () -> fleet_seeds ~seed:args.seed)
      ~warm_up:(fun seeds -> ignore (fleet_run (List.hd seeds)))
  in
  let first = Hashtbl.create 16 in
  let walls = samples () and allocs = samples () in
  let runs = ref [] in
  let reps =
    repeat_for args.seconds (fun i ->
        let rs =
          List.map
            (fun seed ->
              let label = Printf.sprintf "fleet/seed=%d" seed in
              let r, ns, words = measure (fun () -> fleet_run seed) in
              expect_ok label (fleet_ok r);
              repeats first label (fleet_fingerprint r);
              add_sample walls label (float_of_int ns);
              add_sample allocs label words;
              r)
            seeds
        in
        if i = 0 then runs := rs)
  in
  let runs = !runs in
  set "peak_heap_mb" (peak_heap_mb ());
  let sum f = List.fold_left (fun acc (r : Harness.Fleet.run) -> acc + f r) 0 runs in
  let sup f = sum (fun r -> f r.Harness.Fleet.r_sup) in
  let arrivals = sup (fun s -> s.sim_arrivals) in
  let cycles = sum (fun r -> r.r_cycles) in
  let median_of f = Stats.median_int (List.map f runs) in
  Printf.printf "fleet: %d seeds x %d repetitions; %d cy, %d arrivals\n" (List.length seeds) reps cycles
    arrivals;
  set "wall_s" (sum_medians walls /. 1e9);
  set "alloc_mwords" (sum_medians allocs /. 1e6);
  set "model_mcycles" (float_of_int cycles /. 1e6);
  set "goodput_pct" (100.0 *. ratio (sup (fun s -> s.sim_within_budget)) arrivals);
  set "latency_p50_kcy" (median_of (fun r -> r.r_sup.sim_p50) /. 1e3);
  set "latency_p95_kcy" (median_of (fun r -> r.r_sup.sim_p95) /. 1e3);
  set "latency_samples" (float_of_int (sup (fun s -> s.sim_completed)));
  let setc name v = set name (float_of_int v) in
  setc "fleet.deaths" (sum (fun r -> r.r_deaths));
  setc "fleet.drains" (sum (fun r -> r.r_drains));
  setc "fleet.failovers" (sum (fun r -> r.r_failovers));
  setc "fleet.lost" (sum (fun r -> r.r_lost));
  setc "fleet.hb_timeouts" (sum (fun r -> r.r_hb_timeouts));
  setc "balancer.sheds_overload" (sup (fun s -> s.sim_sheds_overload));
  setc "balancer.sheds_draining" (sup (fun s -> s.sim_sheds_draining));
  setc "balancer.sheds_no_capacity" (sup (fun s -> s.sim_sheds_no_capacity));
  set "balancer.admit_ratio" (ratio (sup (fun s -> s.sim_admitted)) arrivals);
  setc "telemetry.samples"
    (sum (fun r -> Telemetry.samples r.r_tel + r.r_sup.sim_samples + r.r_unsup.sim_samples));
  setc "telemetry.spans" (sum (fun r -> Telemetry.span_count r.r_tel));
  setc "telemetry.stitched" (sum (fun r -> r.r_stitched));
  set "failover_downtime_kcy"
    (Stats.median_int (List.concat_map (fun (r : Harness.Fleet.run) -> r.r_downtimes) runs) /. 1e3);
  set "failed_ops_frac"
    (ratio (sup (fun s -> Harness.Fleet.sheds_total s + s.sim_lost)) arrivals);
  set "sim.host_ns_per_kcycle" (sum_medians walls /. (float_of_int cycles /. 1e3));
  (* the host recorders live inside run_once on the model clock: fold them
     for model self times; a host-time split needs an in-program hook *)
  if args.trace then begin
    let folds =
      List.concat_map
        (fun (r : Harness.Fleet.run) ->
          List.map
            (fun (_, name, t) ->
              check (name ^ ": recorder dropped no events") (Trace.dropped t = 0);
              Spans.of_trace t)
            r.r_host_traces)
        runs
    in
    let s = Spans.sum folds in
    check "fleet: spans nest and fit the run"
      (s.unmatched = 0 && s.dangling = 0 && s.covered <= cycles);
    set_spans ~suffix:".self_mcy" ~scale:1e6 s (cycles - s.covered)
  end

(* --- output --- *)

(* The shortest decimal that reads back as the same float. *)
let json_number v =
  let exact p = float_of_string (Printf.sprintf "%.*g" p v) = v in
  let p = List.find_opt exact [ 15; 16 ] |> Option.value ~default:17 in
  Printf.sprintf "%.*g" p v

let () =
  let args = parse_args () in
  Printf.printf "perfbench: workload %s, seed %d, %g s, trace %d\n%!" args.workload args.seed
    args.seconds (Bool.to_int args.trace);
  if args.workload = "fleet" then fleet_workload args else stack_workload args;
  if args.trace then unit_probes ();
  let table = if args.trace then per_layer else end_to_end in
  let value name =
    let v = Option.value ~default:0.0 (Hashtbl.find_opt metrics name) in
    check (name ^ " is finite") (Float.is_finite v);
    if not args.trace then check (name ^ " is positive") (v > 0.0);
    json_number (if Float.is_finite v then v else 0.0)
  in
  let values = List.map (fun (name, unit) -> (name, value name, unit)) table in
  List.iter (fun (name, v, unit) -> Printf.printf "metric %-34s %s %s\n" name v unit) values;
  let metric (name, v, unit) = Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name v unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", " (List.map metric values));
  exit (if !failed = 0 then 0 else 1)
