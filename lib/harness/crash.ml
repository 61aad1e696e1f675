(* The crash-point matrix: kill the VMM at every journal/device write
   site, then prove recovery replay honours the durability invariants.
   See crash.mli. *)

open Machine
open Guest

let crash_sites = Inject.[ Jrnl_append; Jrnl_ckpt; Blk_write; Blk_free ]

(* Small guest memory and a short checkpoint cadence: the workload must
   swap (device traffic beyond file writeback) and must cross at least one
   mid-run checkpoint so Jrnl_ckpt crash points land inside real work. *)
let kconfig =
  {
    Kernel.default_config with
    guest_pages = 96;
    fs_blocks = 256;
    swap_blocks = 256;
    journal_blocks = 16;
    journal_ckpt_every = 24;
  }

(* The chaos salt: a crash run derives the same keys as a chaos run. *)
let vconfig seed = Scenario.vconfig ~salt:0xC4A05 ~seed

(* --- the workload ---

   A cloaked protagonist drives every journaled path: two protected
   objects created, saved and synced (metadata updates, generation bumps,
   writeback intents/commits), one re-opened and re-saved so O_TRUNC frees
   journal-referenced blocks (Freed records, Blk_free crash points), plus
   enough cloaked anonymous memory under an uncloaked antagonist's
   pressure that shm pages also reach the swap device (DMA intent/commit).
   Every save is followed by Uapi.sync — a save without a sync is not
   durable, and the ledger only counts what the journal committed. *)

let payload name i =
  let seedtext = Printf.sprintf "crash-%s-page-%02d|" name i in
  let b = Bytes.create 96 in
  for j = 0 to 95 do
    Bytes.set b j seedtext.[j mod String.length seedtext]
  done;
  b

let protagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let sh = Oshim.Shim.install u in
  (* cloaked anon memory joining the swap churn *)
  let vpn = Uapi.mmap u ~pages:2 ~cloaked:true () in
  let base = Addr.vaddr_of_vpn vpn in
  Uapi.store u ~vaddr:base (payload "anon" 0);
  (* first protected object *)
  let f = Oshim.Shim_io.create sh ~path:"/vault" ~pages:3 in
  for i = 0 to 2 do
    Oshim.Shim_io.write sh f ~pos:(i * Addr.page_size) (payload "alpha" i)
  done;
  Oshim.Shim_io.save sh f;
  Uapi.sync u;
  Oshim.Shim_io.close sh f;
  Uapi.compute u ~cycles:150_000;
  (* reopen, modify, save again: O_TRUNC frees the committed blocks *)
  let f2 = Oshim.Shim_io.open_existing sh ~path:"/vault" in
  let back = Oshim.Shim_io.read sh f2 ~pos:0 ~len:16 in
  Oshim.Shim_io.write sh f2 ~pos:Addr.page_size (payload "beta" 1);
  Oshim.Shim_io.save sh f2;
  Uapi.sync u;
  Oshim.Shim_io.close sh f2;
  (* second protected object *)
  let g = Oshim.Shim_io.create sh ~path:"/ledger" ~pages:2 in
  Oshim.Shim_io.write sh g ~pos:0 (payload "gamma" 0);
  Oshim.Shim_io.write sh g ~pos:Addr.page_size (payload "gamma" 1);
  Oshim.Shim_io.save sh g;
  Uapi.sync u;
  Oshim.Shim_io.close sh g;
  let alive = Uapi.load u ~vaddr:base ~len:16 in
  Uapi.munmap u ~start_vpn:vpn ~pages:2;
  Uapi.exit u (if Bytes.length back = 16 && Bytes.length alive = 16 then 0 else 3)

let antagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let public = Bytes.of_string "uncloaked-filler-block-contents" in
  Uapi.mkdir u "/pub";
  for i = 0 to 2 do
    let fd = Uapi.openf u (Printf.sprintf "/pub/f%d" i) [ Abi.O_CREAT; Abi.O_RDWR ] in
    for _ = 1 to 3 do
      Uapi.write_bytes u ~fd public
    done;
    Uapi.close u fd
  done;
  Uapi.sync u;
  (* memory pressure: push the protagonist's shm pages through swap *)
  let vpn = Uapi.mmap u ~pages:48 () in
  let base = Addr.vaddr_of_vpn vpn in
  for i = 0 to 47 do
    Uapi.store_byte u ~vaddr:(base + (i * Addr.page_size)) (i land 0xff)
  done;
  Uapi.compute u ~cycles:150_000;
  for i = 0 to 47 do
    ignore (Uapi.load_byte u ~vaddr:(base + (i * Addr.page_size)))
  done;
  for i = 0 to 2 do
    Uapi.unlink u (Printf.sprintf "/pub/f%d" i)
  done;
  Uapi.exit u 0

(* --- the committed-data ledger ---

   The observer sees exactly the records the journal made durable, in
   order, and never one a crash tore. Mirroring the journal's own bind
   semantics over that stream yields the oracle for invariant 1: the set
   of (page -> device block) bindings that recovery has no excuse to
   lose. *)

type ledger = (string * int, string * int) Hashtbl.t

let ledger_apply (l : ledger) = function
  | Cloak.Journal.Update { tag; idx; _ } -> Hashtbl.remove l (tag, idx)
  | Intent _ -> ()
  | Commit { tag; idx; dev; block } -> Hashtbl.replace l (tag, idx) (dev, block)
  | Freed { dev; block } ->
      let stale =
        Hashtbl.fold
          (fun k (d, b) acc -> if d = dev && b = block then k :: acc else acc)
          l []
      in
      List.iter (Hashtbl.remove l) stale
  | Dropped_page { tag; idx } -> Hashtbl.remove l (tag, idx)
  | Dropped_resource { tag } ->
      let stale = Hashtbl.fold (fun (t, i) _ acc -> if t = tag then (t, i) :: acc else acc) l [] in
      List.iter (Hashtbl.remove l) stale
  | Generation _ -> ()
  | Seal _ -> ()

let ledger_bindings (l : ledger) =
  Hashtbl.fold (fun (tag, idx) (dev, block) acc -> (tag, idx, dev, block) :: acc) l []
  |> List.sort compare

(* --- one run of the workload under a plan --- *)

type point = { site : Inject.site; occurrence : int }

let point_to_string p =
  Printf.sprintf "%s#%d" (Inject.site_to_string p.site) p.occurrence

type raw_run = {
  kernel : Kernel.t option;  (* None: the crash hit during boot (journal attach) *)
  engine : Inject.t;
  vmm : Cloak.Vmm.t;
  trace : Trace.t;
  crashed : bool;
  ledger : ledger;
}

let run_workload ~seed ~plan =
  let engine = Inject.create plan in
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:(vconfig seed) ~engine ~trace () in
  let ledger : ledger = Hashtbl.create 32 in
  match
    try `Up (Kernel.create ~config:kconfig vmm)
    with Inject.Vmm_crash _ -> `Boot_crash
  with
  | `Boot_crash -> { kernel = None; engine; vmm; trace; crashed = true; ledger }
  | `Up k ->
      (match Cloak.Vmm.journal vmm with
      | Some j -> Cloak.Journal.set_observer j (Some (ledger_apply ledger))
      | None -> ());
      ignore (Kernel.spawn k ~cloaked:true protagonist);
      ignore (Kernel.spawn k antagonist);
      let crashed =
        try
          Kernel.run k;
          false
        with Inject.Vmm_crash _ -> true
      in
      { kernel = Some k; engine; vmm; trace; crashed; ledger }

(* --- calibration: occurrence counts and journal overhead, no faults ---

   One fault-free run per seed: the occurrence counts bound the crash
   matrix (up to [per_site] evenly spaced occurrences per site) and the
   journal counters feed the overhead benchmark. *)

type journal_stats = {
  records : int;
  store_writes : int;
  checkpoints : int;
  data_writes : int;      (* device writes that were not journal-store writes *)
  occurrences : (Inject.site * int) list;
}

let calibrate ~seed =
  let { vmm; engine; _ } = run_workload ~seed ~plan:(Inject.plan []) in
  let records, store_writes, checkpoints =
    match Cloak.Vmm.journal vmm with
    | Some j ->
        Cloak.Journal.(records_appended j, store_writes j, checkpoints_taken j)
    | None -> (0, 0, 0)
  in
  {
    records;
    store_writes;
    checkpoints;
    data_writes = (Cloak.Vmm.counters vmm).disk_writes - store_writes;
    occurrences = List.map (fun s -> (s, Inject.occurrences engine s)) crash_sites;
  }

let sample ~per_site total =
  let k = min per_site total in
  List.init (max 0 k) (fun i -> 1 + (i * (total - 1) / max 1 (k - 1)))

let per_site = 6

let points_of_stats stats =
  List.concat_map
    (fun (site, total) ->
      List.map (fun occurrence -> { site; occurrence }) (sample ~per_site total))
    stats.occurrences

(* --- crash, then recover --- *)

type outcome = {
  point : point;
  seed : int;
  crashed : bool;
  ledger_committed : int;
  committed : int;
  redone : int;
  torn : int;
  quarantined : int;
  replay_s : float;
  failures : string list;
  hdr : Scenario.header;
}

let run_point ~seed point =
  let plan =
    Inject.plan
      [ { Inject.site = point.site;
          trigger = Inject.once ~at:point.occurrence;
          action = Inject.Crash_point } ]
  in
  let raw = run_workload ~seed ~plan in
  (* Everything in VMM memory is gone with the power cut; only the block
     devices survive. A fresh VMM from the same seed re-derives the keys. *)
  let trace2 = Trace.ring () in
  let vmm2 = Cloak.Vmm.create ~config:(vconfig seed) ~trace:trace2 () in
  let read, read_block =
    match raw.kernel with
    | Some k ->
        let disk = Kernel.disk k and swap = Kernel.swap_device k in
        let read_block ~dev ~block =
          let d =
            if dev = Blockdev.name disk then Some disk
            else if dev = Blockdev.name swap then Some swap
            else None
          in
          match d with
          | Some d when block >= 0 && block < Blockdev.block_count d ->
              Some (Blockdev.peek d block)
          | _ -> None
        in
        (Blockdev.peek disk, read_block)
    | None ->
        (* the crash hit while the journal itself was booting: the disk
           died with the kernel constructor, so recovery faces blank
           media — and must still come up empty-handed, not wrong *)
        ((fun _ -> Bytes.make Addr.page_size '\000'), fun ~dev:_ ~block:_ -> None)
  in
  let store =
    { Cloak.Journal.blocks = kconfig.journal_blocks; block_size = Addr.page_size; read;
      write = (fun _ _ -> ()) }
  in
  let t0 = Sys.time () in
  let r = Cloak.Recovery.replay ~vmm:vmm2 ~store ~read_block in
  let replay_s = Sys.time () -. t0 in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let quarantined tag =
    List.exists (fun q -> Cloak.Resource.tag q = tag) r.Cloak.Recovery.quarantined
  in
  (* invariant 1: every binding the journal committed is either recovered
     intact or loudly quarantined — never silently lost *)
  List.iter
    (fun (tag, idx, dev, block) ->
      let pg =
        List.find_opt
          (fun (p : Cloak.Recovery.page) ->
            Cloak.Resource.tag p.resource = tag && p.idx = idx)
          r.Cloak.Recovery.pages
      in
      match pg with
      | Some p when p.status <> Cloak.Recovery.Torn -> ()
      | Some _ -> if not (quarantined tag) then fail "committed %s[%d] torn but not quarantined" tag idx
      | None ->
          if not (quarantined tag) then
            fail "committed page lost: %s[%d] at %s:%d" tag idx dev block)
    (ledger_bindings raw.ledger);
  (* invariant 2: nothing torn is accepted — independently re-authenticate
     every page recovery installed, and check every torn resource is
     actually condemned in the recovered VMM *)
  let loaded = Cloak.Journal.load ~key:(Cloak.Vmm.journal_key vmm2) store in
  List.iter
    (fun (p : Cloak.Recovery.page) ->
      let tag = Cloak.Resource.tag p.resource in
      if p.status = Cloak.Recovery.Torn then begin
        if not (Cloak.Vmm.is_quarantined vmm2 p.resource) then
          fail "torn %s[%d] not quarantined in recovered VMM" tag p.idx
      end
      else
        match Hashtbl.find_opt loaded.Cloak.Journal.rstate.pages (tag, p.idx) with
        | None -> fail "accepted %s[%d] has no journaled metadata" tag p.idx
        | Some m -> (
            match read_block ~dev:p.dev ~block:p.block with
            | None -> fail "accepted %s[%d] points at a missing block" tag p.idx
            | Some cipher ->
                if
                  not
                    (Cloak.Vmm.verify_cipher vmm2 ~resource:p.resource ~idx:p.idx
                       ~version:m.Cloak.Journal.version ~iv:m.Cloak.Journal.iv
                       ~mac:m.Cloak.Journal.mac ~cipher)
                then fail "accepted %s[%d] fails authentication" tag p.idx))
    r.Cloak.Recovery.pages;
  let audit = Inject.Audit.lines (Cloak.Vmm.audit raw.vmm) @ Inject.Audit.lines (Cloak.Vmm.audit vmm2) in
  let prefixed what trace = List.map (fun f -> what ^ f) (Trace.Check.verdict trace) in
  {
    point;
    seed;
    crashed = raw.crashed;
    ledger_committed = Hashtbl.length raw.ledger;
    committed = Cloak.Recovery.committed r;
    redone = Cloak.Recovery.redone r;
    torn = Cloak.Recovery.torn r;
    quarantined = List.length r.Cloak.Recovery.quarantined;
    replay_s;
    failures = List.rev !fails;
    (* both halves of the story: the run that died mid-write (the
       prefix-closed trace rules tolerate the truncation) and the recovery
       that replayed it *)
    hdr =
      {
        Scenario.crash = None;
        leaks = [];
        audit;
        audit_dropped =
          Inject.Audit.dropped (Cloak.Vmm.audit raw.vmm)
          + Inject.Audit.dropped (Cloak.Vmm.audit vmm2);
        trace_failures = prefixed "crash run: " raw.trace @ prefixed "recovery: " trace2;
      };
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "seed %d %-14s %s: ledger=%d committed=%d redone=%d torn=%d quarantined=%d%s"
    o.seed (point_to_string o.point)
    (if o.crashed then "crash" else "NO-CRASH")
    o.ledger_committed o.committed o.redone o.torn o.quarantined
    (match o.failures @ o.hdr.trace_failures with
    | [] -> ""
    | l -> " FAILED " ^ String.concat "; " l)

(* --- the scenario: calibrate, then every sampled crash point replayed --- *)

type seed_report = { stats : journal_stats; outcomes : outcome list }

let run_seed c =
  let seed = Scenario.seed c in
  let stats = calibrate ~seed in
  let outcome point =
    let label = point_to_string point in
    let o =
      Scenario.cell c ~replay:true label ~header:(fun o -> o.hdr) (fun () ->
          run_point ~seed point)
    in
    if not o.crashed then Scenario.fail c (label ^ " never fired");
    List.iter (fun f -> Scenario.fail c (label ^ ": " ^ f)) o.failures;
    o
  in
  { stats; outcomes = List.map outcome (points_of_stats stats) }

let aggregate rs =
  let os = List.concat_map (fun r -> r.outcomes) rs in
  let total f = Report.Int (Scenario.sum f os) in
  let per_run f = if rs = [] then 0 else Scenario.sum (fun r -> f r.stats) rs / List.length rs in
  let points = List.length os in
  let replay_s = List.fold_left (fun acc o -> acc +. o.replay_s) 0.0 os in
  let store = per_run (fun s -> s.store_writes) and data = per_run (fun s -> s.data_writes) in
  ( [ ("crash_points", Report.Int points);
      ("crashes_fired", total (fun o -> Bool.to_int o.crashed));
      ( "sites",
        Report.Obj
          (List.map
             (fun s ->
               (Inject.site_to_string s, total (fun o -> Bool.to_int (o.point.site = s))))
             crash_sites) );
      ("ledger_committed", total (fun o -> o.ledger_committed));
      ("recovered_committed", total (fun o -> o.committed));
      ("recovered_redone", total (fun o -> o.redone));
      ("torn_quarantined", total (fun o -> o.torn));
      ("replay_total_s", Report.Float replay_s);
      ( "replay_mean_ms",
        Report.Float
          (if points = 0 then 0.0 else 1000.0 *. replay_s /. float_of_int (2 * points)) );
      ("journal_records_per_run", Report.Int (per_run (fun s -> s.records)));
      ("journal_store_writes_per_run", Report.Int store);
      ("journal_checkpoints_per_run", Report.Int (per_run (fun s -> s.checkpoints)));
      ("data_writes_per_run", Report.Int data);
      ( "journal_writes_per_data_write",
        Report.Float (if data = 0 then 0.0 else float_of_int store /. float_of_int data) ) ],
    [] )

let scenario =
  {
    Scenario.name = "crash-matrix";
    bench = "recovery";
    doc = "power-cut every journal/device write site across N seeds";
    default_seeds = 20;
    ok =
      "all invariants held: no committed-data loss, no torn-state acceptance, \
       deterministic replay";
    run_seed;
    pp = (fun ppf r -> List.iter (Format.fprintf ppf "%a@." pp_outcome) r.outcomes);
    aggregate;
  }
