(* Crash consistency: the metadata journal's write-ahead discipline, the
   recovery replay's committed/redone/torn classification, and the
   crash-point matrix over seeded workloads. Plus the satellite robustness
   checks that ride along: typed block-device errors and export blob
   truncation/reordering. *)

open Machine
open Guest

let jkey = Bytes.init 32 (fun i -> Char.chr (i * 7 mod 256))

(* An in-memory journal store with a write counter, for unit tests. *)
let mem_store ?(blocks = 12) () =
  let data = Array.init blocks (fun _ -> Bytes.make 512 '\000') in
  let store =
    {
      Cloak.Journal.blocks;
      block_size = 512;
      read = (fun b -> Bytes.copy data.(b));
      write = (fun b d -> data.(b) <- Bytes.copy d);
    }
  in
  (store, data)

let iv = Bytes.make 16 'i'
let mac = Bytes.make 32 'm'

let upd tag idx = Cloak.Journal.Update { tag; idx; version = 1; iv; mac }
let intent tag idx block = Cloak.Journal.Intent { tag; idx; dev = "disk"; block }
let commit tag idx block = Cloak.Journal.Commit { tag; idx; dev = "disk"; block }

(* --- journal unit tests --- *)

let test_journal_roundtrip () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:9" 0);
  Cloak.Journal.record j (intent "shm:9" 0 42);
  Cloak.Journal.record j (commit "shm:9" 0 42);
  Cloak.Journal.record j (upd "shm:9" 1);
  Cloak.Journal.record j (intent "shm:9" 1 43);
  Cloak.Journal.record j
    (Cloak.Journal.Generation { id = 9; gen = 3; size = 100; pages = 2 });
  let r = Cloak.Journal.load ~key:jkey store in
  let st = r.Cloak.Journal.rstate in
  Alcotest.(check int) "replayed the log tail" 6 r.Cloak.Journal.replayed;
  Alcotest.(check bool) "page 0 committed" true
    (Hashtbl.find_opt st.binds ("shm:9", 0)
    = Some { Cloak.Journal.dev = "disk"; block = 42 });
  Alcotest.(check bool) "page 1 still in flight" true
    (Hashtbl.find_opt st.inflight ("shm:9", 1)
    = Some { Cloak.Journal.dev = "disk"; block = 43 });
  Alcotest.(check bool) "page 1 has no committed bind" true
    (Hashtbl.find_opt st.binds ("shm:9", 1) = None);
  Alcotest.(check bool) "generation restored" true
    (Hashtbl.find_opt st.gens 9 = Some (3, 100, 2))

let test_journal_update_invalidates_bind () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:1" 0);
  Cloak.Journal.record j (intent "shm:1" 0 7);
  Cloak.Journal.record j (commit "shm:1" 0 7);
  (* a re-encryption makes the durable ciphertext stale *)
  Cloak.Journal.record j (upd "shm:1" 0);
  let st = (Cloak.Journal.load ~key:jkey store).Cloak.Journal.rstate in
  Alcotest.(check bool) "bind invalidated by fresh encryption" true
    (Hashtbl.find_opt st.binds ("shm:1", 0) = None)

let test_journal_freed_removes_binds () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:1" 0);
  Cloak.Journal.record j (intent "shm:1" 0 7);
  Cloak.Journal.record j (commit "shm:1" 0 7);
  Alcotest.(check bool) "block referenced before the free" true
    (Cloak.Journal.references_block j ~dev:"disk" ~block:7);
  Cloak.Journal.record j (Cloak.Journal.Freed { dev = "disk"; block = 7 });
  Alcotest.(check bool) "block unreferenced after the free" false
    (Cloak.Journal.references_block j ~dev:"disk" ~block:7);
  let st = (Cloak.Journal.load ~key:jkey store).Cloak.Journal.rstate in
  Alcotest.(check bool) "freed block's bind gone" true
    (Hashtbl.find_opt st.binds ("shm:1", 0) = None)

let test_journal_checkpoint_compacts () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~ckpt_every:4 ~key:jkey store in
  for i = 0 to 9 do
    Cloak.Journal.record j (upd "shm:2" i)
  done;
  Alcotest.(check bool) "cadence checkpoints happened" true
    (Cloak.Journal.checkpoints_taken j >= 2);
  let r = Cloak.Journal.load ~key:jkey store in
  Alcotest.(check bool) "log tail shorter than history" true
    (r.Cloak.Journal.replayed < 10);
  Alcotest.(check int) "all ten pages survive compaction" 10
    (Hashtbl.length r.Cloak.Journal.rstate.pages)

let test_journal_epoch_advances_across_attach () =
  let store, _ = mem_store () in
  let j1 = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j1 (upd "shm:3" 0);
  let e1 = Cloak.Journal.epoch j1 in
  let j2 = Cloak.Journal.attach ~key:jkey store in
  Alcotest.(check bool) "epoch advanced" true (Cloak.Journal.epoch j2 > e1);
  Alcotest.(check bool) "state survived the re-attach" true
    (Cloak.Journal.knows j2 ~tag:"shm:3" ~idx:0)

let test_journal_torn_tail_truncates () =
  let store, data = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:4" 0);
  Cloak.Journal.record j (intent "shm:4" 0 9);
  Cloak.Journal.record j (commit "shm:4" 0 9);
  (* corrupt the first log block: every post-checkpoint record sits behind
     a now-broken chain MAC *)
  let log_start = 2 + (2 * max 1 ((Array.length data - 2) / 4)) in
  Bytes.set data.(log_start) 0 '\xff';
  let r = Cloak.Journal.load ~key:jkey store in
  Alcotest.(check int) "replay stops at the first bad frame" 0
    r.Cloak.Journal.replayed;
  Alcotest.(check int) "no forged state accepted" 0
    (Hashtbl.length r.Cloak.Journal.rstate.binds)

let test_journal_blank_and_garbage_store () =
  let store, data = mem_store () in
  let r = Cloak.Journal.load ~key:jkey store in
  Alcotest.(check int) "blank store recovers empty" 0
    (Hashtbl.length r.Cloak.Journal.rstate.pages);
  Array.iteri (fun i _ -> data.(i) <- Bytes.make 512 '\x5a') data;
  let r = Cloak.Journal.load ~key:jkey store in
  Alcotest.(check int) "garbage store recovers empty, never raises" 0
    (Hashtbl.length r.Cloak.Journal.rstate.pages)

let test_journal_too_small () =
  let store, _ = mem_store ~blocks:(Cloak.Journal.min_blocks - 1) () in
  Alcotest.(check bool) "undersized store rejected" true
    (match Cloak.Journal.attach ~key:jkey store with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_journal_wrong_key_recovers_nothing () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:5" 0);
  let other = Bytes.make 32 'k' in
  let r = Cloak.Journal.load ~key:other store in
  Alcotest.(check int) "foreign key sees nothing" 0
    (Hashtbl.length r.Cloak.Journal.rstate.pages)

(* --- crash-point matrix (the tentpole acceptance, smaller here; the CI
   target runs the full 20-seed sweep through the CLI) --- *)

let test_crash_matrix () =
  let module S = Harness.Scenario in
  let v = S.run Harness.Crash.scenario ~seeds:(S.seeds_from ~base:11 ~count:5) in
  Alcotest.(check (list string)) "no invariant failures" [] v.failures;
  Alcotest.(check int) "every sampled point actually crashed"
    (S.int v "crash_points") (S.int v "crashes_fired");
  List.iter
    (fun site ->
      let site = Inject.site_to_string site in
      let sites = Option.get (Report.member "sites" (Report.Obj v.metrics)) in
      Alcotest.(check bool)
        (Printf.sprintf "site %s covered" site)
        true
        (Option.bind (Report.member site sites) Report.to_int > Some 0))
    Harness.Crash.crash_sites;
  let quarantined =
    List.concat_map (fun (s : _ S.seed) -> s.report.Harness.Crash.outcomes) v.seeds
    |> S.sum (fun o -> o.Harness.Crash.quarantined)
  in
  Alcotest.(check bool) "matrix saw committed data" true
    (S.int v "recovered_committed" > 0);
  Alcotest.(check bool) "matrix saw torn pages quarantined" true
    (S.int v "torn_quarantined" > 0 && quarantined > 0)

let test_crash_point_deterministic () =
  let point = { Harness.Crash.site = Inject.Blk_write; occurrence = 23 } in
  let a = Harness.Crash.run_point ~seed:1 point in
  let b = Harness.Crash.run_point ~seed:1 point in
  Alcotest.(check (list string)) "same crash, same story" a.Harness.Crash.hdr.audit
    b.Harness.Crash.hdr.audit

let test_recovery_of_clean_run () =
  (* no crash: everything synced must come back committed, nothing torn *)
  let o =
    Harness.Crash.run_point ~seed:5
      { Harness.Crash.site = Inject.Jrnl_append; occurrence = 100_000 }
  in
  Alcotest.(check bool) "no power cut fired" false o.Harness.Crash.crashed;
  Alcotest.(check (list string)) "invariants hold" [] o.Harness.Crash.failures;
  Alcotest.(check (list string)) "trace invariants hold" []
    o.Harness.Crash.hdr.trace_failures;
  Alcotest.(check int) "nothing torn" 0 o.Harness.Crash.torn;
  Alcotest.(check bool) "committed pages recovered" true
    (o.Harness.Crash.committed >= o.Harness.Crash.ledger_committed
    && o.Harness.Crash.ledger_committed > 0)

(* --- satellite: typed block-device errors --- *)

let mk_dev ?(reserve = 0) blocks =
  let vmm = Cloak.Vmm.create () in
  (vmm, Blockdev.create ~reserve ~vmm ~blocks ())

let expect_bad_block name f =
  Alcotest.(check bool) name true
    (match f () with _ -> false | exception Blockdev.Bad_block _ -> true)

let test_blockdev_bounds () =
  let _, dev = mk_dev 8 in
  expect_bad_block "negative block" (fun () -> Blockdev.peek dev (-1));
  expect_bad_block "block past the end" (fun () -> Blockdev.peek dev 8);
  expect_bad_block "free out of range" (fun () -> Blockdev.free_block dev 9);
  expect_bad_block "raw write out of range" (fun () ->
      Blockdev.write_raw dev 8 (Bytes.make Addr.page_size 'x'))

let test_blockdev_reserved_region () =
  let vmm, dev = mk_dev ~reserve:4 16 in
  ignore vmm;
  Alcotest.(check int) "reservation visible" 4 (Blockdev.reserved dev);
  Alcotest.(check bool) "allocation skips the journal region" true
    (Blockdev.alloc_block dev >= 4);
  expect_bad_block "data write into the journal region" (fun () ->
      Blockdev.write_block dev 2 ~ppn:0);
  expect_bad_block "data read from the journal region" (fun () ->
      Blockdev.read_block dev 2 ~ppn:0);
  expect_bad_block "freeing a journal block" (fun () -> Blockdev.free_block dev 1);
  (* the journal itself uses the raw path, which may touch the region *)
  Blockdev.write_raw dev 1 (Bytes.make Addr.page_size 'j');
  Alcotest.(check bool) "raw journal write landed" true
    (Bytes.get (Blockdev.peek dev 1) 0 = 'j')

let test_blockdev_double_free () =
  let _, dev = mk_dev 8 in
  let b = Blockdev.alloc_block dev in
  Blockdev.free_block dev b;
  Alcotest.(check bool) "double free is a typed error" true
    (match Blockdev.free_block dev b with
    | () -> false
    | exception Blockdev.Bad_block { op = "free"; block; _ } -> block = b);
  expect_bad_block "freeing a never-allocated block" (fun () ->
      Blockdev.free_block dev 7)

(* --- satellite: export blob truncation and reordering --- *)

let secret = "journal-satellite-secret-page!!!"
let app = Cloak.Context.app 1

let shm_setup () =
  let vmm = Cloak.Vmm.create () in
  let pt = Page_table.create ~asid:1 in
  Cloak.Vmm.register_address_space vmm pt;
  for vpn = 0 to 3 do
    Page_table.map pt vpn (100 + vpn) ~writable:true ~user:true
  done;
  let shm = Cloak.Vmm.fresh_shm vmm in
  Cloak.Vmm.cloak_range vmm ~asid:1 ~resource:shm ~start_vpn:0 ~pages:4 ~base_idx:0;
  (vmm, shm)

let rejected vmm blob =
  match Cloak.Vmm.import_metadata vmm blob with
  | _ -> false
  | exception Cloak.Violation.Security_fault v ->
      v.Cloak.Violation.kind = Cloak.Violation.Metadata_forged

let test_import_rejects_every_truncation_class () =
  let vmm, shm = shm_setup () in
  Cloak.Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  Cloak.Vmm.write vmm ~ctx:app ~vaddr:Addr.page_size (Bytes.of_string secret);
  let blob = Cloak.Vmm.export_metadata vmm shm ~pages:4 ~logical_size:64 in
  let n = Bytes.length blob in
  List.iter
    (fun keep ->
      Alcotest.(check bool)
        (Printf.sprintf "truncation to %d bytes rejected" keep)
        true
        (rejected vmm (Bytes.sub blob 0 keep)))
    [ 0; 1; n / 4; n / 2; n - 33; n - 32; n - 1 ]

let test_import_rejects_record_reordering () =
  let vmm, shm = shm_setup () in
  Cloak.Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  Cloak.Vmm.write vmm ~ctx:app ~vaddr:Addr.page_size (Bytes.of_string "other-page");
  let blob = Cloak.Vmm.export_metadata vmm shm ~pages:4 ~logical_size:64 in
  (* page records are fixed 65-byte cells after the header line: swapping
     two of them is the "give page 1 page 0's metadata" splice attack *)
  let header_end = 1 + Bytes.index blob '\n' in
  let cell = 65 in
  let swapped = Bytes.copy blob in
  Bytes.blit blob (header_end + cell) swapped header_end cell;
  Bytes.blit blob header_end swapped (header_end + cell) cell;
  Alcotest.(check bool) "reordered page records rejected" true (rejected vmm swapped);
  (* sanity: the unmodified blob still imports *)
  ignore (Cloak.Vmm.import_metadata vmm (Cloak.Vmm.export_metadata vmm shm ~pages:4 ~logical_size:64))

let () =
  Alcotest.run "recovery"
    [
      ( "journal",
        [
          Alcotest.test_case "record/load round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "update invalidates bind" `Quick
            test_journal_update_invalidates_bind;
          Alcotest.test_case "freed removes binds" `Quick
            test_journal_freed_removes_binds;
          Alcotest.test_case "checkpoints compact" `Quick
            test_journal_checkpoint_compacts;
          Alcotest.test_case "epoch advances across attach" `Quick
            test_journal_epoch_advances_across_attach;
          Alcotest.test_case "torn tail truncates" `Quick
            test_journal_torn_tail_truncates;
          Alcotest.test_case "blank/garbage store" `Quick
            test_journal_blank_and_garbage_store;
          Alcotest.test_case "undersized store rejected" `Quick test_journal_too_small;
          Alcotest.test_case "wrong key recovers nothing" `Quick
            test_journal_wrong_key_recovers_nothing;
        ] );
      ( "crash-matrix",
        [
          Alcotest.test_case "invariants over 5 seeds" `Slow test_crash_matrix;
          Alcotest.test_case "crash point deterministic" `Quick
            test_crash_point_deterministic;
          Alcotest.test_case "clean run recovers everything" `Quick
            test_recovery_of_clean_run;
        ] );
      ( "blockdev-errors",
        [
          Alcotest.test_case "bounds" `Quick test_blockdev_bounds;
          Alcotest.test_case "reserved region" `Quick test_blockdev_reserved_region;
          Alcotest.test_case "double free" `Quick test_blockdev_double_free;
        ] );
      ( "metadata-blob",
        [
          Alcotest.test_case "truncation classes rejected" `Quick
            test_import_rejects_every_truncation_class;
          Alcotest.test_case "record reordering rejected" `Quick
            test_import_rejects_record_reordering;
        ] );
    ]
