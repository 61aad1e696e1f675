(* Live migration of a cloaked process over a hostile, lossy channel:
   drain at the source, chunked authenticated transfer, adopt-and-resume
   at the destination. See migrate.mli for the invariants. *)

open Machine
open Guest

(* --- the workload ---

   A restart-aware cloaked service in the soak idiom (state page mmapped
   first, counter + canary, one OS-visible progress byte per unit, sealed
   checkpoint after every unit). The checkpoint hypercall doubles as the
   quiesce point where the drain handler fires; a migrated incarnation
   reads the counter back from the restored cloaked page and resumes at
   the destination from where the source stopped. *)

let rounds = 16
let service = Soak.restartable ~rounds ~unit_cycles:20_000 ~vault:false

(* Uncloaked noise on whichever side it runs: disk traffic and memory
   pressure so migration happens under load, not in a quiet lab. *)
let antagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let public = Bytes.of_string "public-migration-noise-plaintext" in
  let fd = Uapi.openf u "/noise" [ Abi.O_CREAT; Abi.O_RDWR ] in
  for _ = 1 to 4 do
    Uapi.write_bytes u ~fd public
  done;
  Uapi.close u fd;
  let vpn = Uapi.mmap u ~pages:24 () in
  let b = Addr.vaddr_of_vpn vpn in
  for pass = 0 to 1 do
    for i = 0 to 23 do
      Uapi.store_byte u ~vaddr:(b + (i * Addr.page_size)) ((pass + i) land 0xff)
    done;
    Uapi.compute u ~cycles:100_000
  done;
  Uapi.exit u 0

let kconfig = Soak.kconfig
let policy = Soak.policy

(* --- driver tunables --- *)

(* Attempts before the circuit breaker leaves the process at the source
   for good; the per-attempt retry round limit and deadline; the
   acceptance ceiling on a committed run's downtime, and on the stall a
   fully-aborted migration may cost the source ([max_attempts]
   deadline-bounded drain windows, dominated by chunk-resend MACs). *)
let max_attempts = 3
let retry_limit = 8
let deadline_disk_ops = 400
let downtime_bound = 20_000_000
let abort_downtime_bound = 64_000_000

(* --- one migration session (shared with the fleet) --- *)

type link = { ch : Cloak.Migrate.channel; jitter : Oscrypto.Prng.t }

exception Stalled
(* a transfer round ended with the destination still not READY *)

(* Drain the channel in both directions until neither side makes
   progress (undelivered frames may still be delayed in flight). *)
let pump link rcv snd =
  let progressed = ref true in
  while !progressed do
    progressed := false;
    (match Cloak.Migrate.recv link.ch with
    | Some wire ->
        progressed := true;
        List.iter (Cloak.Migrate.reply link.ch) (Cloak.Migrate.deliver rcv wire)
    | None -> ());
    match Cloak.Migrate.recv_reply link.ch with
    | Some wire ->
        progressed := true;
        Cloak.Migrate.absorb_ack snd wire
    | None -> ()
  done

(* Retransmission rounds under the shared guest retry policy: each round
   re-offers if unacked, resends every unacked chunk and pumps. The
   deadline is the end-to-end migration timeout — jittered exponential
   backoff between rounds, [Retry.Deadline_exceeded] either on the cycle
   budget or the round limit. *)
let transfer link ~src snd rcv =
  let c = Cloak.Vmm.counters src in
  let disk_op = (Cost.model (Cloak.Vmm.cost src)).Cost.disk_op in
  Retry.with_backoff
    ~deadline_cycles:(deadline_disk_ops * disk_op)
    ~jitter:link.jitter ~limit:retry_limit
    ~retryable:(function Stalled -> true | _ -> false)
    ~charge:(fun ~cycles ->
      c.mig_retries <- c.mig_retries + 1;
      Cloak.Vmm.charge src cycles)
    ~base_cost:disk_op ~exhausted:Retry.Deadline_exceeded
    (fun () ->
      if not (Cloak.Migrate.offer_acked snd) then
        Cloak.Migrate.send link.ch (Cloak.Migrate.offer_wire snd);
      List.iter (Cloak.Migrate.send link.ch) (Cloak.Migrate.chunk_wires snd);
      pump link rcv snd;
      if not (Cloak.Migrate.ready snd) then raise Stalled)

(* Post-fence control frames are liveness-only: the destination already
   holds the verified blob, so losing the COMMIT (or an ABORT's ack)
   forever must not wedge the source. Bounded retry, exhaustion
   swallowed. *)
let nudge link ~src snd rcv ~wire ~done_ =
  let disk_op = (Cost.model (Cloak.Vmm.cost src)).Cost.disk_op in
  try
    Retry.with_backoff ~jitter:link.jitter ~limit:3
      ~retryable:(function Stalled -> true | _ -> false)
      ~charge:(fun ~cycles -> Cloak.Vmm.charge src cycles)
      ~base_cost:disk_op ~exhausted:Stalled
      (fun () ->
        Cloak.Migrate.send link.ch (wire ());
        pump link rcv snd;
        if not (done_ ()) then raise Stalled)
  with Stalled -> ()

(* One session. On READY: fence (retire the source's seal generation —
   the split-brain point of no return, journal-anchored), then COMMIT. On
   deadline: ABORT — nothing was staled. Either way the session is over
   once the final nudge lands: scrub both endpoints' copies of the
   session key and drop them, so the flight recorder's scrub-before-free
   pass covers the key material. *)
let attempt link ~src ~tag snd rcv =
  let committed =
    match transfer link ~src snd rcv with
    | () ->
        Cloak.Vmm.retire_seal_generation src ~tag
          ~gen:(Cloak.Vmm.seal_generation src ~tag);
        nudge link ~src snd rcv
          ~wire:(fun () -> Cloak.Migrate.commit_wire snd)
          ~done_:(fun () -> Cloak.Migrate.commit_acked snd);
        true
    | exception Retry.Deadline_exceeded ->
        nudge link ~src snd rcv
          ~wire:(fun () -> Cloak.Migrate.abort_wire snd)
          ~done_:(fun () -> Cloak.Migrate.abort_acked snd);
        false
  in
  Cloak.Migrate.close_sender snd;
  Cloak.Migrate.close_receiver rcv;
  committed

(* --- the two stacks and the wire between them --- *)

type stack = {
  engine : Inject.t;
  link : link;
  src_trace : Trace.t;
  dst_trace : Trace.t;
  src_vmm : Cloak.Vmm.t;
  dst_vmm : Cloak.Vmm.t;
  src_k : Kernel.t;
  dst_k : Kernel.t;
  seed : int;
  pid : int;
  mutable attempts : int;
  mutable committed : bool;
  mutable breaker : bool;  (** gave up migrating after [max_attempts] *)
  mutable downtime : int;  (** drain windows + destination install cycles *)
  mutable blob : bytes option;  (** last drained checkpoint *)
  mutable gen : int;  (** its seal generation (fence target) *)
  mutable session : string;  (** last attempt's session id *)
  mutable receivers : Cloak.Migrate.receiver list;  (** newest first *)
}

let tag_of st = Cloak.Resource.tag (Cloak.Resource.Anon st.pid)

(* The drain handler: runs inside the source kernel's checkpoint syscall
   with the process stopped. A committed session retires the source
   (Mig_commit); an aborted one re-arms for the next quiesce point until
   the attempt budget breaks the circuit, and resumes at the source. *)
let rec handler st blob =
  st.attempts <- st.attempts + 1;
  let t0 = Cost.cycles (Cloak.Vmm.cost st.src_vmm) in
  Trace.span_enter st.src_trace ~ctx:Trace.Vmm ~site:(tag_of st) Trace.Migration;
  st.gen <- Cloak.Vmm.seal_generation st.src_vmm ~tag:(tag_of st);
  st.blob <- Some blob;
  st.session <- Printf.sprintf "s%d-a%d" st.seed st.attempts;
  let snd = Cloak.Migrate.sender st.src_vmm ~session:st.session blob in
  let rcv = Cloak.Migrate.receiver st.dst_vmm ~session:st.session in
  st.receivers <- rcv :: st.receivers;
  let decision =
    if attempt st.link ~src:st.src_vmm ~tag:(tag_of st) snd rcv then begin
      st.committed <- true;
      Kernel.Mig_commit
    end
    else begin
      if st.attempts >= max_attempts then st.breaker <- true
      else Kernel.request_migration st.src_k ~pid:st.pid (handler st);
      Kernel.Mig_abort
    end
  in
  let dt = Cost.cycles (Cloak.Vmm.cost st.src_vmm) - t0 in
  st.downtime <- st.downtime + dt;
  let c = Cloak.Vmm.counters st.src_vmm in
  c.mig_downtime_cycles <- c.mig_downtime_cycles + dt;
  Trace.span_exit st.src_trace ~ctx:Trace.Vmm ~site:(tag_of st) Trace.Migration;
  decision

(* --- one migration scenario --- *)

type run = {
  committed : bool;
  attempts : int;
  breaker : bool;
  downtime : int;
  src_units : int;
  dst_units : int;
  src_status : int option;
  dst_status : int option;
  wire_frames : int;
  retries : int;
  mac_failures : int;
  hdr : Scenario.header;
  powered_off : bool;  (* a planned Crash_point cut the source *)
  sup : Kernel.supervision_stats option;
  probe_failures : string list;
  st : stack;  (* kept for crash-matrix post-mortems *)
}

let units_of k =
  match Fs.lookup (Kernel.fs k) "/progress" with
  | Ok ino -> Fs.size (Kernel.fs k) ino
  | Error _ -> 0

let run_once ~plan ~seed =
  let engine = Inject.create plan in
  (* both VMMs share the fleet master secret: same seed *)
  let vconfig = Scenario.vconfig ~salt:0x317E ~seed in
  let src_trace = Trace.ring () and dst_trace = Trace.ring () in
  let src_vmm = Cloak.Vmm.create ~config:vconfig ~engine ~trace:src_trace () in
  let dst_vmm = Cloak.Vmm.create ~config:vconfig ~trace:dst_trace () in
  let src_k = Kernel.create ~config:kconfig src_vmm in
  let dst_k = Kernel.create ~config:kconfig dst_vmm in
  let ch = Cloak.Migrate.channel ~engine () in
  let pid = Kernel.spawn_supervised src_k ~policy service in
  ignore (Kernel.spawn src_k antagonist);
  let st =
    {
      engine; link = { ch; jitter = Oscrypto.Prng.create ~seed:(seed lxor 0x11771) };
      src_trace; dst_trace; src_vmm; dst_vmm; src_k; dst_k;
      seed; pid; attempts = 0; committed = false; breaker = false;
      downtime = 0; blob = None; gen = 0; session = ""; receivers = [];
    }
  in
  Kernel.request_migration src_k ~pid (handler st);
  let crash, powered_off =
    match Kernel.run src_k with
    | () -> (None, false)
    | exception Inject.Vmm_crash _ -> (None, true)
    | exception e -> (Some (Printexc.to_string e), false)
  in
  let completed = crash = None && (not powered_off) && st.committed in
  let probe_failures = ref [] in
  let probe msg = probe_failures := msg :: !probe_failures in
  (* destination side: adopt the committed blob and run it to completion
     under its own antagonist *)
  (if completed then
     match st.receivers with
     | [] -> probe "committed with no receiver"
     | rcv :: _ -> (
         match Cloak.Migrate.blob rcv with
         | None -> probe "fenced at the source but destination holds no blob"
         | Some blob -> (
             let t0 = Cost.cycles (Cloak.Vmm.cost dst_vmm) in
             match Kernel.adopt_migrated dst_k ~policy ~prog:service blob with
             | _pid ->
                 let dt = Cost.cycles (Cloak.Vmm.cost dst_vmm) - t0 in
                 st.downtime <- st.downtime + dt;
                 let c = Cloak.Vmm.counters src_vmm in
                 c.mig_downtime_cycles <- c.mig_downtime_cycles + dt;
                 ignore (Kernel.spawn dst_k antagonist);
                 (try Kernel.run dst_k
                  with e -> probe ("destination run: " ^ Printexc.to_string e))
             | exception e ->
                 probe ("adopt refused a committed blob: " ^ Printexc.to_string e))));
  (* snapshot the deterministic surfaces before the probes below append
     to the audit trail *)
  let audit = Inject.Audit.lines (Cloak.Vmm.audit src_vmm) in
  let audit_dropped = Inject.Audit.dropped (Cloak.Vmm.audit src_vmm) in
  let cs = Cloak.Vmm.counters src_vmm and cd = Cloak.Vmm.counters dst_vmm in
  let wire = Cloak.Migrate.wire_log ch in
  let leaks =
    Soak.scan_leaks src_vmm src_k
    @ List.map (fun s -> "dst " ^ s) (Soak.scan_leaks dst_vmm dst_k)
    @ Soak.wire_leaks wire
  in
  (* post-run adversarial probes (skipped after a crash; the crash
     matrix does its own post-mortem) *)
  (if completed then begin
     let blob = match st.blob with Some b -> b | None -> Bytes.empty in
     (* double-resume at the source: the fence retired the generation *)
     (match Cloak.Seal.unseal src_vmm blob with
     | _ -> probe "source re-unsealed the migrated blob (fence leaked)"
     | exception e when Cloak.Violation.is_stale e -> ());
     (* double-delivery at the destination: install consumed it *)
     (match Kernel.adopt_migrated dst_k ~policy ~prog:service blob with
     | _ -> probe "destination re-adopted the migrated blob"
     | exception e when Cloak.Violation.is_stale e -> ());
     (* replaying every frame the OS recorded can at best rebuild the
        same bytes — and those are stale everywhere now *)
     let replayed = Cloak.Migrate.receiver dst_vmm ~session:st.session in
     List.iter (fun w -> ignore (Cloak.Migrate.deliver replayed w)) wire;
     (match Cloak.Migrate.blob replayed with
     | Some b when not (Bytes.equal b blob) ->
         probe "replayed wire log assembled a different blob"
     | _ -> ());
     (* a flipped bit anywhere in a frame must be rejected unacked *)
     match wire with
     | [] -> ()
     | w :: _ when Bytes.length w > 0 ->
         let t = Bytes.copy w in
         let i = Bytes.length t / 2 in
         Bytes.set t i (Char.chr (Char.code (Bytes.get t i) lxor 0x40));
         let r2 = Cloak.Migrate.receiver dst_vmm ~session:st.session in
         if Cloak.Migrate.deliver r2 t <> [] then
           probe "tampered frame was acknowledged";
         if Cloak.Migrate.blob r2 <> None then
           probe "tampered frame produced a blob";
         if not (List.mem Cloak.Migrate.Bad_mac (Cloak.Migrate.rejects r2)) then
           probe "tampered frame not rejected as Bad_mac"
     | _ -> ()
   end);
  {
    committed = st.committed;
    attempts = cs.mig_attempts;
    breaker = st.breaker;
    downtime = st.downtime;
    src_units = units_of src_k;
    dst_units = units_of dst_k;
    src_status = Kernel.exit_status src_k ~pid;
    dst_status = Kernel.exit_status dst_k ~pid;
    wire_frames = List.length wire;
    retries = cs.mig_retries;
    mac_failures = cs.mig_chunk_mac_failures + cd.mig_chunk_mac_failures;
    hdr =
      {
        Scenario.crash;
        leaks;
        audit;
        audit_dropped;
        trace_failures =
          Trace.Check.verdict src_trace
          @ List.map (fun f -> "dst: " ^ f) (Trace.Check.verdict dst_trace);
      };
    powered_off;
    sup = Kernel.supervision_stats src_k ~pid;
    probe_failures = List.rev !probe_failures;
    st;
  }

(* --- hostile channel plans ---

   Bounded bursts of loss, duplication, delay, reordering and corruption
   aimed only at the three channel sites: the protocol must ride them out
   (commit eventually) or abort cleanly back to the source. Crash_point
   never appears here — the crash matrix drives it deterministically. *)
let hostile_plan ~seed =
  let r = Oscrypto.Prng.create ~seed:(seed lxor 0x6D16A7E) in
  let int = Oscrypto.Prng.int in
  let rule _ =
    let trigger =
      {
        Inject.start = 1 + int r 25;
        every = 1 + int r 5;
        count = 1 + int r 4;
      }
    in
    let site =
      match int r 3 with
      | 0 -> Inject.Mig_send
      | 1 -> Inject.Mig_recv
      | _ -> Inject.Mig_ack
    in
    let action =
      match int r 6 with
      | 0 -> Inject.Drop
      | 1 -> Inject.Duplicate
      | 2 -> Inject.Delay (1 + int r 3)
      | 3 -> Inject.Bit_flip (int r 600)
      | 4 -> Inject.Torn_write (int r 600)
      | _ -> Inject.Reorder
    in
    { Inject.site; trigger; action }
  in
  Inject.plan ~seed (List.init (3 + int r 4) rule)

(* A channel that eats every forward frame: no attempt can ever reach
   READY, so the driver must walk the whole abort path — deadline abort,
   re-arm, circuit breaker — and the source must finish untouched. *)
let blackhole_plan ~seed =
  Inject.plan ~seed
    [ { Inject.site = Inject.Mig_send; trigger = Inject.always; action = Inject.Drop } ]

(* --- crash matrix over the channel sites ---

   Power the source VMM off at every occurrence of every Mig_* site (as
   calibrated from the clean run) and prove the split-brain invariants:
   fenced ⇒ the destination holds the verified blob, adopts it exactly
   once and finishes; not fenced ⇒ the receiver never committed and the
   source's latest checkpoint still restores. Either way exactly one
   incarnation survives. The first [crash_seeds] seeds of a sweep run
   it. *)

let crash_seeds = 3
let mig_sites = [ Inject.Mig_send; Inject.Mig_recv; Inject.Mig_ack ]

let crash_points (clean : run) =
  List.concat_map
    (fun site ->
      List.map
        (fun occurrence -> { Crash.site; occurrence })
        (Crash.sample ~per_site:4 (Inject.occurrences clean.st.engine site)))
    mig_sites

(* Post-mortem of one crashed run; true when the source had fenced. *)
let post_mortem fail (r : run) =
  let st = r.st in
  let fenced = Cloak.Vmm.seal_generation st.src_vmm ~tag:(tag_of st) > st.gen in
  (if not r.powered_off then fail "crash point did not fire"
   else
     match st.receivers with
     | [] -> fail "crashed before any transfer attempt"
     | rcv :: _ when fenced -> (
         (* never lose a committed process *)
         match Cloak.Migrate.blob rcv with
         | None -> fail "fenced but destination holds no verified blob"
         | Some blob -> (
             match Kernel.adopt_migrated st.dst_k ~policy ~prog:service blob with
             | _pid -> (
                 (try Kernel.run st.dst_k
                  with e -> fail ("destination run: " ^ Printexc.to_string e));
                 if Kernel.exit_status st.dst_k ~pid:st.pid <> Some 0 then
                   fail "migrated process did not complete at destination";
                 (* never run two incarnations *)
                 match Kernel.adopt_migrated st.dst_k ~policy ~prog:service blob with
                 | _ -> fail "blob adopted twice after a crash"
                 | exception e when Cloak.Violation.is_stale e -> ())
             | exception e -> fail ("fenced blob refused: " ^ Printexc.to_string e)))
     | rcv :: _ -> (
         (* never accept an unfenced commit *)
         if Cloak.Migrate.committed rcv then
           fail "receiver committed before the source fenced";
         (* the source remains recoverable from its latest checkpoint *)
         match Kernel.supervision_stats st.src_k ~pid:st.pid with
         | Some { Kernel.sup_last_checkpoint = Some b; _ } -> (
             match Cloak.Seal.unseal st.src_vmm b with
             | _ -> ()
             | exception e ->
                 fail ("source checkpoint unrecoverable after crash: " ^ Printexc.to_string e))
         | _ -> fail "no source checkpoint survived the crash"));
  fenced

(* --- the scenario: clean, hostile (replayed), blackhole, crash points --- *)

type seed_report = {
  seed : int;
  clean_committed : bool;
  clean_downtime : int;
  hostile_committed : bool;
  hostile_attempts : int;
  hostile_breaker : bool;
  hostile_downtime : int;
  attempts : int;
  completed : int;
  aborts : int;
  retries : int;
  mac_failures : int;
  downtime_cycles : int;
  breaker_trips : int;
  wire_frames : int;
  crash_points : int;
  crash_fenced : int;
}

let run_seed c =
  let seed = Scenario.seed c in
  let fail = Scenario.fail c in
  let cell ?replay label plan =
    Scenario.cell c ?replay label ~header:(fun r -> r.hdr) (fun () -> run_once ~plan ~seed)
  in
  let clean = cell "clean" (Inject.plan ~seed []) in
  let h1 = cell ~replay:true "hostile" (hostile_plan ~seed) in
  let bh = cell "blackhole" (blackhole_plan ~seed) in
  if bh.committed then fail "blackhole channel somehow committed";
  if not bh.breaker then fail "blackhole: circuit breaker never tripped";
  if bh.attempts <> max_attempts then
    fail
      (Printf.sprintf "blackhole: %d attempts against a budget of %d"
         bh.attempts max_attempts);
  (* clean channel: first attempt commits, source retires with the
     migrated status, destination finishes every unit *)
  if not clean.committed then fail "clean migration did not commit";
  if clean.committed && clean.attempts <> 1 then
    fail (Printf.sprintf "clean migration took %d attempts" clean.attempts);
  if clean.committed && clean.downtime <= 0 then fail "no downtime recorded";
  (* every mode: committed ⇒ exactly one incarnation finishes at the
     destination and the source is fenced; aborted ⇒ the source finishes
     as if migration were never requested *)
  List.iter
    (fun (name, (r : run)) ->
      let fail m = fail (name ^ ": " ^ m) in
      if r.committed then begin
        if r.src_status <> Some Kernel.migrated_exit_status then
          fail "committed but source incarnation not retired";
        if r.dst_status <> Some 0 then
          fail "committed but migrated process failed at destination";
        if r.dst_units < rounds then
          fail (Printf.sprintf "destination finished %d/%d units" r.dst_units rounds)
      end
      else begin
        if r.breaker && r.attempts <> max_attempts then fail "circuit broke off-budget";
        if r.src_status <> Some 0 then fail "migration aborted but source did not complete";
        if r.src_units < rounds then fail "migration aborted and source lost progress"
      end;
      let bound = if r.committed then downtime_bound else abort_downtime_bound in
      if r.downtime > bound then
        fail (Printf.sprintf "downtime %d above bound %d" r.downtime bound);
      List.iter fail r.probe_failures;
      match r.sup with
      | None -> fail "supervision stats vanished"
      | Some s ->
          if s.Kernel.sup_migrations_attempted <> r.attempts then
            fail "supervision attempt count diverges from the drain handler";
          if r.committed && s.Kernel.sup_migrations_completed <> 1 then
            fail "supervision completed count diverges from the drain handler")
    [ ("clean", clean); ("hostile", h1); ("blackhole", bh) ];
  let fenced =
    if Scenario.index c >= crash_seeds then []
    else
      List.map
        (fun (p : Crash.point) ->
          let label = "crash " ^ Crash.point_to_string p in
          let plan =
            Inject.plan ~seed
              [ { Inject.site = p.site; trigger = Inject.once ~at:p.occurrence;
                  action = Inject.Crash_point } ]
          in
          post_mortem
            (fun m -> fail (label ^ ": " ^ m))
            (cell ~replay:true label plan))
        (crash_points clean)
  in
  let committed (r : run) = Bool.to_int r.committed in
  {
    seed;
    clean_committed = clean.committed;
    clean_downtime = clean.downtime;
    hostile_committed = h1.committed;
    hostile_attempts = h1.attempts;
    hostile_breaker = h1.breaker;
    hostile_downtime = h1.downtime;
    attempts = clean.attempts + h1.attempts + bh.attempts;
    completed = committed clean + committed h1;
    aborts = clean.attempts + h1.attempts + bh.attempts - committed clean - committed h1;
    retries = clean.retries + h1.retries + bh.retries;
    mac_failures = clean.mac_failures + h1.mac_failures + bh.mac_failures;
    downtime_cycles = clean.downtime + h1.downtime + bh.downtime;
    breaker_trips = Bool.to_int h1.breaker + Bool.to_int bh.breaker;
    wire_frames = clean.wire_frames + h1.wire_frames + bh.wire_frames;
    crash_points = List.length fenced;
    crash_fenced = List.length (List.filter Fun.id fenced);
  }

let aggregate rs =
  let hist = Trace.Hist.create () in
  List.iter
    (fun r ->
      if r.clean_downtime > 0 then Trace.Hist.add hist r.clean_downtime;
      if r.hostile_downtime > 0 then Trace.Hist.add hist r.hostile_downtime)
    rs;
  let total f = Report.Int (Scenario.sum f rs) in
  ( [ ("rounds_per_run", Report.Int rounds);
      ("clean_committed", total (fun r -> Bool.to_int r.clean_committed));
      ("hostile_committed", total (fun r -> Bool.to_int r.hostile_committed));
      ("hostile_aborted", total (fun r -> Bool.to_int (not r.hostile_committed)));
      ("attempts", total (fun r -> r.attempts));
      ("retries", total (fun r -> r.retries));
      ("chunk_mac_failures", total (fun r -> r.mac_failures));
      ("breaker_trips", total (fun r -> r.breaker_trips));
      ("downtime_p50_cycles", Report.Int (Trace.Hist.percentile hist 0.5));
      ("downtime_p95_cycles", Report.Int (Trace.Hist.percentile hist 0.95));
      ("wire_frames", total (fun r -> r.wire_frames));
      ("crash_points", total (fun r -> r.crash_points));
      ("crash_fenced", total (fun r -> r.crash_fenced)) ],
    [] )

let pp_seed_report ppf (r : seed_report) =
  Format.fprintf ppf
    "seed %d: clean %s (downtime %d), hostile %s in %d attempt%s (downtime \
     %d, retries %d, bad MACs %d), %d crash points (%d fenced)@."
    r.seed
    (if r.clean_committed then "migrated" else "FAILED")
    r.clean_downtime
    (if r.hostile_committed then "migrated"
     else if r.hostile_breaker then "gave up (circuit broke)"
     else "aborted")
    r.hostile_attempts
    (if r.hostile_attempts = 1 then "" else "s")
    r.hostile_downtime r.retries r.mac_failures r.crash_points r.crash_fenced

let scenario =
  {
    Scenario.name = "migrate";
    bench = "migration";
    doc = "live-migrate a cloaked process over a hostile, lossy channel";
    default_seeds = 20;
    ok =
      "all invariants held: one incarnation, no wire plaintext, no replayed or \
       tampered blob accepted, bounded downtime, deterministic audit";
    run_seed;
    pp = pp_seed_report;
    aggregate;
  }
