(* Unit tests of the guest kernel's internal services — filesystem, block
   device, pipes — exercised directly against a bare VMM, plus errno. *)

open Machine
open Guest

(* A bare storage stack: VMM + block device + fs with a trivial ppn
   allocator (no kernel, no processes). *)
let storage ?(blocks = 64) () =
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks () in
  let next = ref 0 in
  let alloc_ppn () =
    let p = !next in
    incr next;
    p
  in
  let fs = Fs.create ~vmm ~dev ~alloc_ppn ~free_ppn:(fun _ -> ()) in
  (vmm, dev, fs)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s" (Errno.to_string expected)
  | Error e -> Alcotest.(check string) "errno" (Errno.to_string expected) (Errno.to_string e)

(* --- fs namespace --- *)

let test_fs_paths () =
  let _, _, fs = storage () in
  ok (Fs.mkdir fs "/a");
  ok (Fs.mkdir fs "/a/b");
  let ino = ok (Fs.create_file fs "/a/b/f") in
  Alcotest.(check int) "lookup" ino (ok (Fs.lookup fs "/a/b/f"));
  expect_err Errno.ENOENT (Fs.lookup fs "/a/b/g");
  expect_err Errno.ENOTDIR (Fs.lookup fs "/a/b/f/x");
  expect_err Errno.EINVAL (Fs.lookup fs "relative/path");
  Alcotest.(check bool) "kinds" true (Fs.kind fs ino = `File)

let test_fs_mkdir_errors () =
  let _, _, fs = storage () in
  ok (Fs.mkdir fs "/d");
  expect_err Errno.EEXIST (Fs.mkdir fs "/d");
  expect_err Errno.ENOENT (Fs.mkdir fs "/missing/sub")

let test_fs_unlink_semantics () =
  let _, _, fs = storage () in
  ok (Fs.mkdir fs "/d");
  let _ = ok (Fs.create_file fs "/d/f") in
  expect_err Errno.ENOTEMPTY (Fs.unlink fs "/d");
  ok (Fs.unlink fs "/d/f");
  ok (Fs.unlink fs "/d");
  expect_err Errno.ENOENT (Fs.lookup fs "/d")

let test_fs_create_truncates () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/f") in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 (Bytes.of_string "0123456789")) in
  Alcotest.(check int) "size" 10 (Fs.size fs ino);
  let ino2 = ok (Fs.create_file fs "/f") in
  Alcotest.(check int) "same inode" ino ino2;
  Alcotest.(check int) "truncated" 0 (Fs.size fs ino2)

let test_fs_rename () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/old") in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 (Bytes.of_string "moved")) in
  ok (Fs.rename fs ~src:"/old" ~dst:"/new");
  expect_err Errno.ENOENT (Fs.lookup fs "/old");
  Alcotest.(check int) "same inode" ino (ok (Fs.lookup fs "/new"));
  Alcotest.(check string) "content survives" "moved"
    (Bytes.to_string (ok (Fs.read_host fs ~inode:ino ~pos:0 ~len:5)))

let test_fs_rename_replaces () =
  let _, _, fs = storage () in
  let a = ok (Fs.create_file fs "/a") in
  let _ = ok (Fs.write_host fs ~inode:a ~pos:0 (Bytes.of_string "AAAA")) in
  let b = ok (Fs.create_file fs "/b") in
  let _ = ok (Fs.write_host fs ~inode:b ~pos:0 (Bytes.of_string "BBBB")) in
  ok (Fs.rename fs ~src:"/a" ~dst:"/b");
  Alcotest.(check int) "a's inode now at /b" a (ok (Fs.lookup fs "/b"));
  Alcotest.(check string) "a's content" "AAAA"
    (Bytes.to_string (ok (Fs.read_host fs ~inode:a ~pos:0 ~len:4)));
  expect_err Errno.ENOENT (Fs.lookup fs "/a");
  (* replacing a directory is refused *)
  ok (Fs.mkdir fs "/dir");
  expect_err Errno.EISDIR (Fs.rename fs ~src:"/b" ~dst:"/dir");
  (* renaming onto itself is a no-op *)
  ok (Fs.rename fs ~src:"/b" ~dst:"/b");
  Alcotest.(check int) "self rename keeps entry" a (ok (Fs.lookup fs "/b"))

(* --- fs data path --- *)

let test_fs_sparse_holes () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/sparse") in
  let far = (3 * Addr.page_size) + 17 in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:far (Bytes.of_string "end")) in
  Alcotest.(check int) "size covers the hole" (far + 3) (Fs.size fs ino);
  let hole = ok (Fs.read_host fs ~inode:ino ~pos:100 ~len:8) in
  Alcotest.(check bool) "hole reads zero" true (Bytes.for_all (fun c -> c = '\000') hole);
  let tail = ok (Fs.read_host fs ~inode:ino ~pos:far ~len:3) in
  Alcotest.(check string) "tail" "end" (Bytes.to_string tail)

let test_fs_read_past_eof () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/f") in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 (Bytes.of_string "abc")) in
  let data = ok (Fs.read_host fs ~inode:ino ~pos:1 ~len:100) in
  Alcotest.(check string) "clamped" "bc" (Bytes.to_string data);
  let empty = ok (Fs.read_host fs ~inode:ino ~pos:50 ~len:10) in
  Alcotest.(check int) "past eof" 0 (Bytes.length empty)

let test_fs_writeback_and_reload () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/persist") in
  let payload = Bytes.init 9000 (fun i -> Char.chr ((i * 5) land 0xFF)) in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 payload) in
  Alcotest.(check bool) "cache populated" true (Fs.cached_pages fs > 0);
  Fs.drop_caches fs;
  Alcotest.(check int) "cache emptied" 0 (Fs.cached_pages fs);
  (* data survives on the block device and reloads through real DMA *)
  let back = ok (Fs.read_host fs ~inode:ino ~pos:0 ~len:9000) in
  Alcotest.(check bool) "content survived writeback" true (Bytes.equal payload back);
  Alcotest.(check bool) "block assigned" true
    (Fs.block_of_page fs ~inode:ino ~idx:0 <> None)

let test_fs_truncate_frees_blocks () =
  let _, dev, fs = storage ~blocks:8 () in
  ignore dev;
  let ino = ok (Fs.create_file fs "/big") in
  (* fill most of the device, then truncate and fill again: blocks must be
     recycled or the second fill would hit ENOSPC *)
  let chunk = Bytes.make (6 * Addr.page_size) 'x' in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 chunk) in
  Fs.sync fs;
  ok (Fs.truncate fs ~inode:ino);
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 chunk) in
  Fs.sync fs;
  Alcotest.(check int) "size" (6 * Addr.page_size) (Fs.size fs ino)

let test_fs_readdir () =
  let _, _, fs = storage () in
  ok (Fs.mkdir fs "/dir");
  let _ = ok (Fs.create_file fs "/dir/c") in
  let _ = ok (Fs.create_file fs "/dir/a") in
  ok (Fs.mkdir fs "/dir/b");
  Alcotest.(check (list string)) "sorted entries" [ "a"; "b"; "c" ]
    (ok (Fs.readdir fs "/dir"));
  expect_err Errno.ENOTDIR (Fs.readdir fs "/dir/a")

(* --- block device --- *)

let test_blockdev_alloc_exhaustion () =
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks:2 () in
  let a = Blockdev.alloc_block dev in
  let _b = Blockdev.alloc_block dev in
  Alcotest.check_raises "full" (Errno.Error Errno.ENOSPC) (fun () ->
      ignore (Blockdev.alloc_block dev));
  Blockdev.free_block dev a;
  let c = Blockdev.alloc_block dev in
  Alcotest.(check int) "recycled" a c

let test_blockdev_free_scrubs () =
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks:2 () in
  let b = Blockdev.alloc_block dev in
  Blockdev.poke dev b (Bytes.make Addr.page_size 'S');
  Blockdev.free_block dev b;
  Alcotest.(check bool) "scrubbed on free" true
    (Bytes.for_all (fun c -> c = '\000') (Blockdev.peek dev b))

let test_blockdev_dma_roundtrip () =
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks:4 () in
  let b = Blockdev.alloc_block dev in
  let data = Bytes.init Addr.page_size (fun i -> Char.chr (i land 0xFF)) in
  Cloak.Vmm.phys_write vmm 0 ~off:0 data;
  Blockdev.write_block dev b ~ppn:0;
  Cloak.Vmm.phys_write vmm 1 ~off:0 (Bytes.make Addr.page_size '\000');
  Blockdev.read_block dev b ~ppn:1;
  Alcotest.(check bool) "roundtrip" true
    (Bytes.equal data (Cloak.Vmm.phys_read vmm 1 ~off:0 ~len:Addr.page_size));
  let c = Cloak.Vmm.counters vmm in
  Alcotest.(check int) "reads counted" 1 c.Counters.disk_reads;
  Alcotest.(check int) "writes counted" 1 c.Counters.disk_writes

(* --- the shared zero page ---

   Every never-written block of every device, in every VMM, reads from one
   shared zero page. Each write path must give its block its own bytes
   first: a write into the shared page would show up in every unwritten
   block everywhere. *)

let filled c = Bytes.make Addr.page_size c
let is_zero b = Bytes.for_all (fun c -> c = '\000') b

(* A device whose first probe of [site] draws [action]. *)
let hostile_dev ?rule () =
  let rules =
    match rule with
    | None -> []
    | Some (site, action) -> [ { Inject.site; trigger = Inject.once ~at:1; action } ]
  in
  let vmm = Cloak.Vmm.create ~engine:(Inject.create (Inject.plan rules)) () in
  (vmm, Blockdev.create ~vmm ~blocks:4 ())

(* DMA a page of [c] from guest page [ppn] to block [b]. *)
let dma_out vmm dev b ~ppn c =
  Cloak.Vmm.phys_write vmm ppn ~off:0 (filled c);
  Blockdev.write_block dev b ~ppn

let check_zero_elsewhere what =
  (* a never-written block on a second device of a second VMM *)
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks:2 () in
  let b = Blockdev.alloc_block dev in
  Alcotest.(check bool) (what ^ ": fresh block peeks as zeros") true (is_zero (Blockdev.peek dev b));
  Cloak.Vmm.phys_write vmm 0 ~off:0 (filled 'x');
  Blockdev.read_block dev b ~ppn:0;
  Alcotest.(check bool) (what ^ ": fresh block reads as zeros") true
    (is_zero (Cloak.Vmm.phys_read vmm 0 ~off:0 ~len:Addr.page_size))

let test_zero_page_write_paths () =
  let landed what dev b expect =
    Alcotest.(check bool) (what ^ ": payload landed") true (Bytes.equal expect (Blockdev.peek dev b))
  in
  (* clean DMA *)
  let vmm, dev = hostile_dev () in
  let b = Blockdev.alloc_block dev in
  dma_out vmm dev b ~ppn:0 'C';
  landed "clean" dev b (filled 'C');
  check_zero_elsewhere "clean";
  (* torn DMA: the first 100 bytes land *)
  let vmm, dev = hostile_dev ~rule:(Inject.Blk_write, Inject.Torn_write 100) () in
  let b = Blockdev.alloc_block dev in
  dma_out vmm dev b ~ppn:0 'T';
  landed "torn" dev b (Bytes.init Addr.page_size (fun i -> if i < 100 then 'T' else '\000'));
  check_zero_elsewhere "torn";
  (* bit-flipped DMA *)
  let vmm, dev = hostile_dev ~rule:(Inject.Blk_write, Inject.Bit_flip 7) () in
  let b = Blockdev.alloc_block dev in
  dma_out vmm dev b ~ppn:0 'F';
  let flipped = filled 'F' in
  Bytes.set flipped 7 (Char.chr (Char.code 'F' lxor 1));
  landed "bit-flip" dev b flipped;
  check_zero_elsewhere "bit-flip";
  (* reordered DMA: the held-back payload swaps with the next write's *)
  let vmm, dev = hostile_dev ~rule:(Inject.Blk_write, Inject.Reorder) () in
  let b0 = Blockdev.alloc_block dev in
  let b1 = Blockdev.alloc_block dev in
  dma_out vmm dev b0 ~ppn:0 'R';
  Alcotest.(check bool) "reorder: held back" true (is_zero (Blockdev.peek dev b0));
  dma_out vmm dev b1 ~ppn:1 'S';
  landed "reorder (first)" dev b0 (filled 'S');
  landed "reorder (second)" dev b1 (filled 'R');
  check_zero_elsewhere "reorder";
  (* power cut mid-DMA: half the payload lands *)
  let vmm, dev = hostile_dev ~rule:(Inject.Blk_write, Inject.Crash_point) () in
  let b = Blockdev.alloc_block dev in
  (match dma_out vmm dev b ~ppn:0 'P' with
  | () -> Alcotest.fail "crash point did not fire"
  | exception Inject.Vmm_crash _ -> ());
  landed "crash-point" dev b
    (Bytes.init Addr.page_size (fun i -> if i < Addr.page_size / 2 then 'P' else '\000'));
  check_zero_elsewhere "crash-point";
  (* host-side raw write, clean and cut *)
  let _, dev = hostile_dev () in
  Blockdev.write_raw dev 2 (filled 'W');
  landed "write_raw" dev 2 (filled 'W');
  check_zero_elsewhere "write_raw";
  let _, dev = hostile_dev ~rule:(Inject.Blk_write, Inject.Crash_point) () in
  (match Blockdev.write_raw dev 2 (filled 'X') with
  | () -> Alcotest.fail "crash point did not fire"
  | exception Inject.Vmm_crash _ -> ());
  landed "write_raw crash-point" dev 2
    (Bytes.init Addr.page_size (fun i -> if i < Addr.page_size / 2 then 'X' else '\000'));
  check_zero_elsewhere "write_raw crash-point";
  (* tampering *)
  let _, dev = hostile_dev () in
  Blockdev.poke dev 3 (filled 'K');
  landed "poke" dev 3 (filled 'K');
  Alcotest.(check bool) "poke: neighbour still zeros" true (is_zero (Blockdev.peek dev 2));
  check_zero_elsewhere "poke"

let test_zero_page_free () =
  (* freeing a never-written block leaves it (and everyone else) zeros *)
  let _, dev = hostile_dev () in
  let b = Blockdev.alloc_block dev in
  Blockdev.free_block dev b;
  Alcotest.(check bool) "never-written freed block" true (is_zero (Blockdev.peek dev b));
  (* disk remanence still keeps a written block's bytes *)
  let _, dev = hostile_dev ~rule:(Inject.Blk_free, Inject.Fail_scrub) () in
  let b = Blockdev.alloc_block dev in
  Blockdev.poke dev b (filled 'M');
  Blockdev.free_block dev b;
  Alcotest.(check bool) "remanence keeps the bytes" true (Bytes.equal (filled 'M') (Blockdev.peek dev b));
  (* and a remanent never-written block is still zeros *)
  let _, dev = hostile_dev ~rule:(Inject.Blk_free, Inject.Fail_scrub) () in
  let b = Blockdev.alloc_block dev in
  Blockdev.free_block dev b;
  Alcotest.(check bool) "remanent never-written block" true (is_zero (Blockdev.peek dev b));
  check_zero_elsewhere "free"

(* --- pipes (direct, against a bare address space) --- *)

let pipe_setup () =
  let vmm = Cloak.Vmm.create () in
  let pt = Page_table.create ~asid:1 in
  Cloak.Vmm.register_address_space vmm pt;
  for vpn = 0 to 3 do
    Page_table.map pt vpn vpn ~writable:true ~user:true
  done;
  (vmm, Cloak.Context.sys 1)

let test_pipe_fifo_order () =
  let vmm, ctx = pipe_setup () in
  let p = Pipe.create ~id:1 ~capacity:16 in
  Pipe.add_reader p;
  Pipe.add_writer p;
  Cloak.Vmm.write vmm ~ctx ~vaddr:0 (Bytes.of_string "abcdef");
  (match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:6 with
  | `Wrote 6 -> ()
  | _ -> Alcotest.fail "write failed");
  (match Pipe.read_into p vmm ~ctx ~vaddr:100 ~len:3 with
  | `Data 3 -> ()
  | _ -> Alcotest.fail "read failed");
  Alcotest.(check string) "first half" "abc"
    (Bytes.to_string (Cloak.Vmm.read vmm ~ctx ~vaddr:100 ~len:3));
  (match Pipe.read_into p vmm ~ctx ~vaddr:100 ~len:10 with
  | `Data 3 -> ()
  | _ -> Alcotest.fail "second read failed");
  Alcotest.(check string) "second half" "def"
    (Bytes.to_string (Cloak.Vmm.read vmm ~ctx ~vaddr:100 ~len:3))

let test_pipe_wraparound () =
  let vmm, ctx = pipe_setup () in
  let p = Pipe.create ~id:1 ~capacity:8 in
  Pipe.add_reader p;
  Pipe.add_writer p;
  (* fill, drain partially, refill past the physical end of the ring *)
  Cloak.Vmm.write vmm ~ctx ~vaddr:0 (Bytes.of_string "12345678");
  (match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:8 with
  | `Wrote 8 -> ()
  | _ -> Alcotest.fail "fill failed");
  (match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:1 with
  | `Full -> ()
  | _ -> Alcotest.fail "expected Full");
  (match Pipe.read_into p vmm ~ctx ~vaddr:100 ~len:5 with
  | `Data 5 -> ()
  | _ -> Alcotest.fail "drain failed");
  Cloak.Vmm.write vmm ~ctx ~vaddr:0 (Bytes.of_string "ABCDE");
  (match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:5 with
  | `Wrote 5 -> ()
  | _ -> Alcotest.fail "wrap write failed");
  (match Pipe.read_into p vmm ~ctx ~vaddr:100 ~len:8 with
  | `Data 8 -> ()
  | _ -> Alcotest.fail "wrap read failed");
  Alcotest.(check string) "wrapped content" "678ABCDE"
    (Bytes.to_string (Cloak.Vmm.read vmm ~ctx ~vaddr:100 ~len:8))

let test_pipe_eof_and_broken () =
  let vmm, ctx = pipe_setup () in
  let p = Pipe.create ~id:1 ~capacity:8 in
  Pipe.add_reader p;
  Pipe.add_writer p;
  (match Pipe.read_into p vmm ~ctx ~vaddr:0 ~len:4 with
  | `Empty -> ()
  | _ -> Alcotest.fail "expected Empty while writer exists");
  Pipe.close_writer p;
  (match Pipe.read_into p vmm ~ctx ~vaddr:0 ~len:4 with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected Eof");
  Pipe.close_reader p;
  Pipe.add_writer p;
  match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:1 with
  | `Broken -> ()
  | _ -> Alcotest.fail "expected Broken with no readers"

(* --- errno --- *)

let test_errno_strings () =
  List.iter
    (fun (e, s) -> Alcotest.(check string) s s (Errno.to_string e))
    [
      (Errno.ENOENT, "ENOENT"); (Errno.EEXIST, "EEXIST"); (Errno.EBADF, "EBADF");
      (Errno.EINVAL, "EINVAL"); (Errno.ENOMEM, "ENOMEM"); (Errno.ENOTDIR, "ENOTDIR");
      (Errno.EISDIR, "EISDIR"); (Errno.ENOTEMPTY, "ENOTEMPTY"); (Errno.EPIPE, "EPIPE");
      (Errno.ECHILD, "ECHILD"); (Errno.ESRCH, "ESRCH"); (Errno.EACCES, "EACCES");
      (Errno.ENOSPC, "ENOSPC");
    ]

(* --- property: fs random write/read consistency --- *)

let prop_fs_random_io =
  QCheck.Test.make ~name:"random writes then reads match a model file" ~count:60
    QCheck.(small_list (pair (int_range 0 20_000) (int_range 1 600)))
    (fun writes ->
      let _, _, fs = storage ~blocks:256 () in
      let ino = match Fs.create_file fs "/m" with Ok i -> i | Error _ -> assert false in
      let model = Bytes.make 32_768 '\000' in
      let model_size = ref 0 in
      List.iteri
        (fun i (pos, len) ->
          let pos = pos mod 20_000 and len = 1 + (len mod 600) in
          let data = Bytes.make len (Char.chr (33 + (i mod 90))) in
          (match Fs.write_host fs ~inode:ino ~pos data with
          | Ok _ -> ()
          | Error _ -> ());
          Bytes.blit data 0 model pos len;
          model_size := max !model_size (pos + len))
        writes;
      (* compare the whole file against the model, through the cache *)
      let same_cached =
        match Fs.read_host fs ~inode:ino ~pos:0 ~len:!model_size with
        | Ok b -> Bytes.equal b (Bytes.sub model 0 !model_size)
        | Error _ -> false
      in
      (* and again after writeback + cache drop (through the disk) *)
      Fs.drop_caches fs;
      let same_disk =
        match Fs.read_host fs ~inode:ino ~pos:0 ~len:!model_size with
        | Ok b -> Bytes.equal b (Bytes.sub model 0 !model_size)
        | Error _ -> false
      in
      same_cached && same_disk)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "guest"
    [
      ( "fs namespace",
        [
          quick "paths" test_fs_paths;
          quick "mkdir errors" test_fs_mkdir_errors;
          quick "unlink semantics" test_fs_unlink_semantics;
          quick "create truncates" test_fs_create_truncates;
          quick "rename" test_fs_rename;
          quick "rename replaces" test_fs_rename_replaces;
          quick "readdir" test_fs_readdir;
        ] );
      ( "fs data",
        [
          quick "sparse holes" test_fs_sparse_holes;
          quick "read past eof" test_fs_read_past_eof;
          quick "writeback and reload" test_fs_writeback_and_reload;
          quick "truncate frees blocks" test_fs_truncate_frees_blocks;
          Qseed.to_alcotest prop_fs_random_io;
        ] );
      ( "blockdev",
        [
          quick "alloc exhaustion" test_blockdev_alloc_exhaustion;
          quick "free scrubs" test_blockdev_free_scrubs;
          quick "dma roundtrip" test_blockdev_dma_roundtrip;
          quick "zero page: every write path" test_zero_page_write_paths;
          quick "zero page: free" test_zero_page_free;
        ] );
      ( "pipes",
        [
          quick "fifo order" test_pipe_fifo_order;
          quick "ring wraparound" test_pipe_wraparound;
          quick "eof and broken" test_pipe_eof_and_broken;
        ] );
      ("errno", [ quick "strings" test_errno_strings ]);
    ]
