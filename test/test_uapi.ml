(* Tests of the user-level API: allocator behaviour, the compute/tick loop,
   exec-time cloak transitions, POSIX-ish fd semantics. *)

open Machine
open Guest

let run ?(cloaked = false) prog =
  let vmm = Cloak.Vmm.create () in
  let k = Kernel.create vmm in
  let pid = Kernel.spawn k ~cloaked prog in
  Kernel.run k;
  (vmm, k, pid)

let check_exit k pid expected =
  Alcotest.(check (option int)) "exit status" (Some expected) (Kernel.exit_status k ~pid)

(* --- malloc --- *)

let test_malloc_alignment () =
  let k, pid =
    let _, k, pid =
      run (fun env ->
          let u = Uapi.of_env env in
          let a = Uapi.malloc u 3 in
          let b = Uapi.malloc u 5 in
          if a mod 8 <> 0 || b mod 8 <> 0 then Uapi.exit u 1;
          if b - a <> 8 then Uapi.exit u 2)
    in
    (k, pid)
  in
  check_exit k pid 0

let test_malloc_grows_break () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        let brk0 = Uapi.sbrk u ~pages:0 in
        let big = Uapi.malloc u (10 * Addr.page_size) in
        let brk1 = Uapi.sbrk u ~pages:0 in
        if brk1 - brk0 < 10 then Uapi.exit u 1;
        (* the new memory is usable end to end *)
        Uapi.store_byte u ~vaddr:big 1;
        Uapi.store_byte u ~vaddr:(big + (10 * Addr.page_size) - 1) 2)
  in
  check_exit k pid 0

let test_malloc_negative_rejected () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        match Uapi.malloc u (-1) with
        | _ -> Uapi.exit u 1
        | exception Invalid_argument _ -> Uapi.exit u 7)
  in
  check_exit k pid 7

(* --- word access --- *)

(* A word load/store is an 8-byte load/store: same bytes, same cycles, same
   TLB traffic, whether the word sits inside a page or straddles two. Twin
   buffers on separate resident pages run each op side by side. *)
let test_word_matches_bytes () =
  let _, k, pid =
    run ~cloaked:true (fun env ->
        let u = Uapi.of_env env in
        let cost = Cloak.Vmm.cost env.Abi.vmm in
        let counters = Cloak.Vmm.counters env.Abi.vmm in
        let base = Uapi.malloc u (5 * Addr.page_size) in
        let page0 = (base + Addr.page_size - 1) / Addr.page_size * Addr.page_size in
        for p = 0 to 3 do
          Uapi.store_byte u ~vaddr:(page0 + (p * Addr.page_size)) 0
        done;
        let a = page0 and b = page0 + (2 * Addr.page_size) in
        (* cycles and TLB hits charged by [f] *)
        let cost_of f =
          let c0 = Cost.cycles cost and h0 = counters.Counters.tlb_hits in
          f ();
          (Cost.cycles cost - c0, counters.Counters.tlb_hits - h0)
        in
        List.iteri
          (fun i off ->
            let v = (i * 0x0123_4567_89AB) - 77 in
            let enc = Bytes.create 8 in
            Bytes.set_int64_le enc 0 (Int64.of_int v);
            let w = cost_of (fun () -> Uapi.store_word u ~vaddr:(a + off) v) in
            let s = cost_of (fun () -> Uapi.store u ~vaddr:(b + off) enc) in
            if w <> s then Uapi.exit u 1;
            let got = ref 0 and raw = ref Bytes.empty in
            let w = cost_of (fun () -> got := Uapi.load_word u ~vaddr:(a + off)) in
            let s = cost_of (fun () -> raw := Uapi.load u ~vaddr:(b + off) ~len:8) in
            if w <> s then Uapi.exit u 2;
            if !got <> v || not (Bytes.equal !raw enc) then Uapi.exit u 3;
            if not (Bytes.equal (Uapi.load u ~vaddr:(a + off) ~len:8) enc) then Uapi.exit u 4)
          [ 0; 8; Addr.page_size - 8; Addr.page_size - 4; Addr.page_size - 1 ])
  in
  check_exit k pid 0

(* --- compute / ticks --- *)

let test_compute_ticks () =
  let vmm, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        Uapi.compute u ~cycles:(5 * Kernel.default_config.Kernel.quantum))
  in
  check_exit k pid 0;
  Alcotest.(check int) "five timer ticks" 5 (Cloak.Vmm.counters vmm).Counters.timer_ticks

let test_compute_charges_cycles () =
  let vmm, k, pid =
    run (fun env -> Uapi.compute (Uapi.of_env env) ~cycles:12_345)
  in
  check_exit k pid 0;
  Alcotest.(check bool) "cycles charged" true
    (Cost.cycles (Cloak.Vmm.cost vmm) >= 12_345)

(* --- exec cloak transitions --- *)

let test_exec_cloaked_protects () =
  let vmm, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        if Uapi.cloaked u then Uapi.exit u 1;
        Uapi.exec_cloaked u (fun env2 ->
            let u2 = Uapi.of_env env2 in
            if not (Uapi.cloaked u2) then Uapi.exit u2 2;
            (* memory written now is invisible to the kernel *)
            let buf = Uapi.malloc u2 64 in
            Uapi.store u2 ~vaddr:buf (Bytes.make 64 'S');
            let pt = Cloak.Vmm.page_table env2.Abi.vmm ~asid:(Uapi.pid u2) in
            (match Page_table.lookup pt (Addr.vpn_of_vaddr buf) with
            | Some pte ->
                let view =
                  Cloak.Vmm.phys_read env2.Abi.vmm pte.Page_table.ppn ~off:0 ~len:64
                in
                if Bytes.equal view (Bytes.make 64 'S') then Uapi.exit u2 3
            | None -> Uapi.exit u2 4);
            Uapi.exit u2 0))
  in
  check_exit k pid 0;
  Alcotest.(check bool) "crypto happened" true
    ((Cloak.Vmm.counters vmm).Counters.page_encryptions > 0)

let test_exec_uncloaked_drops_cloak () =
  let _, k, pid =
    run ~cloaked:true (fun env ->
        let u = Uapi.of_env env in
        if not (Uapi.cloaked u) then Uapi.exit u 1;
        Uapi.exec_uncloaked u (fun env2 ->
            let u2 = Uapi.of_env env2 in
            Uapi.exit u2 (if Uapi.cloaked u2 then 2 else 0)))
  in
  check_exit k pid 0

(* --- fd semantics --- *)

let test_fork_shares_offset () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        let fd = Uapi.openf u "/f" [ Abi.O_CREAT; Abi.O_RDWR ] in
        Uapi.write_bytes u ~fd (Bytes.of_string "0123456789");
        ignore (Uapi.lseek u ~fd ~pos:0 ~whence:Abi.Seek_set);
        let _ =
          Uapi.fork u ~child:(fun cenv ->
              let c = Uapi.of_env cenv in
              (* the child advances the shared offset by 4 *)
              ignore (Uapi.read_bytes c ~fd ~len:4);
              Uapi.exit c 0)
        in
        let _ = Uapi.wait u in
        let rest = Uapi.read_bytes u ~fd ~len:6 in
        if Bytes.to_string rest = "456789" then Uapi.exit u 0 else Uapi.exit u 1)
  in
  check_exit k pid 0

let test_dup_shares_offset () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        let fd = Uapi.openf u "/f" [ Abi.O_CREAT; Abi.O_RDWR ] in
        Uapi.write_bytes u ~fd (Bytes.of_string "abcdef");
        let fd2 = Uapi.dup u fd in
        ignore (Uapi.lseek u ~fd ~pos:2 ~whence:Abi.Seek_set);
        let got = Uapi.read_bytes u ~fd:fd2 ~len:2 in
        Uapi.close u fd;
        (* fd2 still works after fd is closed *)
        let got2 = Uapi.read_bytes u ~fd:fd2 ~len:2 in
        if Bytes.to_string got = "cd" && Bytes.to_string got2 = "ef" then Uapi.exit u 0
        else Uapi.exit u 1)
  in
  check_exit k pid 0

let test_pipe_eof_needs_all_writers_closed () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        let rfd, wfd = Uapi.pipe u in
        let _ =
          Uapi.fork u ~child:(fun cenv ->
              let c = Uapi.of_env cenv in
              Uapi.close c rfd;
              Uapi.write_bytes c ~fd:wfd (Bytes.of_string "hi");
              Uapi.close c wfd;
              Uapi.exit c 0)
        in
        (* parent also holds a write end: EOF only after BOTH close *)
        let _ = Uapi.wait u in
        Uapi.close u wfd;
        let all = Uapi.read_bytes u ~fd:rfd ~len:100 in
        if Bytes.to_string all = "hi" then Uapi.exit u 0 else Uapi.exit u 1)
  in
  check_exit k pid 0

let test_sigpipe_default_kills () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        let rfd, wfd = Uapi.pipe u in
        Uapi.close u rfd;
        let buf = Uapi.malloc u 8 in
        ignore (Uapi.write u ~fd:wfd ~vaddr:buf ~len:8);
        Uapi.exit u 0)
  in
  check_exit k pid (128 + Abi.sigpipe)

let test_sigpipe_ignored_gives_epipe () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        Uapi.ignore_signal u ~signum:Abi.sigpipe;
        let rfd, wfd = Uapi.pipe u in
        Uapi.close u rfd;
        let buf = Uapi.malloc u 8 in
        match Uapi.write u ~fd:wfd ~vaddr:buf ~len:8 with
        | _ -> Uapi.exit u 1
        | exception Errno.Error Errno.EPIPE -> Uapi.exit u 0)
  in
  check_exit k pid 0

let test_lseek_whences () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        let fd = Uapi.openf u "/f" [ Abi.O_CREAT; Abi.O_RDWR ] in
        Uapi.write_bytes u ~fd (Bytes.make 100 'x');
        if Uapi.lseek u ~fd ~pos:10 ~whence:Abi.Seek_set <> 10 then Uapi.exit u 1;
        if Uapi.lseek u ~fd ~pos:5 ~whence:Abi.Seek_cur <> 15 then Uapi.exit u 2;
        if Uapi.lseek u ~fd ~pos:(-1) ~whence:Abi.Seek_end <> 99 then Uapi.exit u 3;
        match Uapi.lseek u ~fd ~pos:(-200) ~whence:Abi.Seek_cur with
        | _ -> Uapi.exit u 4
        | exception Errno.Error Errno.EINVAL -> Uapi.exit u 0)
  in
  check_exit k pid 0

let test_append_mode () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        let fd = Uapi.openf u "/log" [ Abi.O_CREAT; Abi.O_RDWR ] in
        Uapi.write_bytes u ~fd (Bytes.of_string "first");
        Uapi.close u fd;
        let fd = Uapi.openf u "/log" [ Abi.O_RDWR; Abi.O_APPEND ] in
        Uapi.write_bytes u ~fd (Bytes.of_string "+second");
        Uapi.close u fd;
        let fd = Uapi.openf u "/log" [ Abi.O_RDONLY ] in
        let all = Uapi.read_bytes u ~fd ~len:100 in
        if Bytes.to_string all = "first+second" then Uapi.exit u 0 else Uapi.exit u 1)
  in
  check_exit k pid 0

let test_readdir_sorted () =
  let _, k, pid =
    run (fun env ->
        let u = Uapi.of_env env in
        Uapi.mkdir u "/d";
        List.iter
          (fun n -> Uapi.close u (Uapi.openf u ("/d/" ^ n) [ Abi.O_CREAT ]))
          [ "zeta"; "alpha"; "mid" ];
        match Uapi.readdir u "/d" with
        | [ "alpha"; "mid"; "zeta" ] -> Uapi.exit u 0
        | _ -> Uapi.exit u 1)
  in
  check_exit k pid 0

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "uapi"
    [
      ( "malloc",
        [
          quick "alignment" test_malloc_alignment;
          quick "grows break" test_malloc_grows_break;
          quick "negative rejected" test_malloc_negative_rejected;
        ] );
      ("word access", [ quick "word = 8-byte load/store" test_word_matches_bytes ]);
      ( "compute",
        [
          quick "ticks" test_compute_ticks;
          quick "charges cycles" test_compute_charges_cycles;
        ] );
      ( "exec cloaking",
        [
          quick "exec_cloaked protects" test_exec_cloaked_protects;
          quick "exec_uncloaked drops" test_exec_uncloaked_drops_cloak;
        ] );
      ( "fds",
        [
          quick "fork shares offset" test_fork_shares_offset;
          quick "dup shares offset" test_dup_shares_offset;
          quick "pipe EOF semantics" test_pipe_eof_needs_all_writers_closed;
          quick "sigpipe default kills" test_sigpipe_default_kills;
          quick "sigpipe ignored gives EPIPE" test_sigpipe_ignored_gives_epipe;
          quick "lseek whences" test_lseek_whences;
          quick "append mode" test_append_mode;
          quick "readdir sorted" test_readdir_sorted;
        ] );
    ]
