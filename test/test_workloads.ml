(* Workload-level tests: every kernel is deterministic, produces identical
   results cloaked and native (cloaking is transparent!), and the three
   application workloads run to successful completion in both modes. *)

open Guest

let run_kernel ~cloaked (k : Workloads.Spec.kernel) =
  let checksum = ref 0 in
  let r =
    Harness.run_program ~cloaked (fun env ->
        checksum := k.Workloads.Spec.run (Uapi.of_env env) ~scale:1)
  in
  Alcotest.(check bool) (k.Workloads.Spec.name ^ " exits 0") true (Harness.all_exited_zero r);
  (!checksum, r.Harness.cycles)

let test_kernel_deterministic (k : Workloads.Spec.kernel) () =
  let sum1, cycles1 = run_kernel ~cloaked:false k in
  let sum2, cycles2 = run_kernel ~cloaked:false k in
  Alcotest.(check int) "checksum stable" sum1 sum2;
  Alcotest.(check int) "cycles stable" cycles1 cycles2

let test_kernel_cloaking_transparent (k : Workloads.Spec.kernel) () =
  let native_sum, native_cycles = run_kernel ~cloaked:false k in
  let cloaked_sum, cloaked_cycles = run_kernel ~cloaked:true k in
  Alcotest.(check int) "same result" native_sum cloaked_sum;
  Alcotest.(check bool) "cloaked costs more" true (cloaked_cycles > native_cycles);
  (* ...but not catastrophically more: this is the paper's headline *)
  Alcotest.(check bool) "overhead under 25%" true
    (float_of_int cloaked_cycles < 1.25 *. float_of_int native_cycles)

let test_webserver ~cloaked () =
  let cfg = { Workloads.Webserver.default with requests = 10 } in
  let r =
    Harness.run
      ~spawn:(fun k ->
        let main env =
          let u = Uapi.of_env env in
          Workloads.Webserver.populate u cfg;
          let req_r, req_w = Uapi.pipe u in
          let resp_r, resp_w = Uapi.pipe u in
          let _ =
            Uapi.fork u ~child:(fun senv ->
                let su = Uapi.of_env senv in
                Uapi.close su req_w;
                Uapi.close su resp_r;
                let image =
                  Workloads.Webserver.server cfg ~use_shim:true ~request_fd:req_r
                    ~response_fd:resp_w
                in
                if cloaked then Uapi.exec_cloaked su image else Uapi.exec su image)
          in
          Uapi.close u req_r;
          Uapi.close u resp_w;
          Workloads.Webserver.client cfg ~request_fd:req_w ~response_fd:resp_r env
        in
        [ Kernel.spawn k main ])
      ()
  in
  Alcotest.(check bool) "all processes exit 0" true (Harness.all_exited_zero r);
  Alcotest.(check bool) "no violations" true (r.Harness.violations = [])

let test_kvstore ~cloaked () =
  let cfg = { Workloads.Kvstore.default with operations = 30 } in
  let r =
    Harness.run
      ~spawn:(fun k ->
        let main env =
          let u = Uapi.of_env env in
          let req_r, req_w = Uapi.pipe u in
          let resp_r, resp_w = Uapi.pipe u in
          let _ =
            Uapi.fork u ~child:(fun senv ->
                let su = Uapi.of_env senv in
                Uapi.close su req_w;
                Uapi.close su resp_r;
                let image =
                  Workloads.Kvstore.server cfg ~use_shim:true ~request_fd:req_r
                    ~response_fd:resp_w
                in
                if cloaked then Uapi.exec_cloaked su image else Uapi.exec su image)
          in
          Uapi.close u req_r;
          Uapi.close u resp_w;
          Workloads.Kvstore.client cfg ~request_fd:req_w ~response_fd:resp_r env
        in
        [ Kernel.spawn k main ])
      ()
  in
  Alcotest.(check bool) "all processes exit 0" true (Harness.all_exited_zero r)

let test_fileio ~cloaked () =
  let cfg = { Workloads.Fileio.default with operations = 120 } in
  let r = Harness.run_program ~cloaked (Workloads.Fileio.run cfg ~use_shim:true) in
  Alcotest.(check bool) "exit 0 (no corruption)" true (Harness.all_exited_zero r)

let test_build ~cloak_workers () =
  let cfg = { Workloads.Buildsim.default with modules = 3 } in
  let r = Harness.run_program (Workloads.Buildsim.driver cfg ~cloak_workers) in
  Alcotest.(check bool) "exit 0 (objects verified)" true (Harness.all_exited_zero r)

(* --- membuf --- *)

let test_membuf_roundtrip () =
  let r =
    Harness.run_program (fun env ->
        let u = Uapi.of_env env in
        let m = Workloads.Membuf.alloc u ~elems:100 in
        for i = 0 to 99 do
          Workloads.Membuf.set m i (i * i * 31)
        done;
        for i = 0 to 99 do
          if Workloads.Membuf.get m i <> i * i * 31 then Uapi.exit u 1
        done;
        (* negative values survive the 64-bit encoding *)
        Workloads.Membuf.set m 0 (-42);
        if Workloads.Membuf.get m 0 <> -42 then Uapi.exit u 2)
  in
  Alcotest.(check bool) "ok" true (Harness.all_exited_zero r)

let test_membuf_bounds () =
  let r =
    Harness.run_program (fun env ->
        let u = Uapi.of_env env in
        let m = Workloads.Membuf.alloc u ~elems:4 in
        match Workloads.Membuf.get m 4 with
        | _ -> Uapi.exit u 1
        | exception Invalid_argument _ -> Uapi.exit u 0)
  in
  Alcotest.(check bool) "bounds checked" true (Harness.all_exited_zero r)

(* --- allocation floor ---

   A TLB hit is the cheap path of the model, and it must be the cheap path
   of the simulator too: word and byte access on a resident page allocates
   nothing, and building a stack allocates no per-block disk storage up
   front. Words are counted as perfbench counts them (minor + major -
   promoted), so direct major-heap allocations show too. *)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let test_access_alloc_floor () =
  let n = 10_000 in
  let per_op = ref Float.nan in
  let r =
    Harness.run_program ~cloaked:true (fun env ->
        let u = Uapi.of_env env in
        let words = Workloads.Membuf.alloc u ~elems:64 in
        let bytes = Workloads.Membuf.alloc_bytes u ~len:64 in
        (* fault the page in and fill the TLB before measuring *)
        Workloads.Membuf.set words 0 0;
        Workloads.Membuf.set_byte bytes 0 0;
        let misses = (Cloak.Vmm.counters env.Abi.vmm).Machine.Counters.tlb_misses in
        let before = allocated_words () in
        let wrong = ref 0 in
        for i = 0 to n - 1 do
          let j = i land 63 in
          Workloads.Membuf.set words j i;
          if Workloads.Membuf.get words j <> i then incr wrong;
          Workloads.Membuf.set_byte bytes j (i land 0xFF);
          if Workloads.Membuf.get_byte bytes j <> i land 0xFF then incr wrong
        done;
        per_op := (allocated_words () -. before) /. float_of_int (4 * n);
        if !wrong <> 0 then Uapi.exit u 1;
        (* every access above was a TLB hit on the resident cloaked page *)
        if (Cloak.Vmm.counters env.Abi.vmm).Machine.Counters.tlb_misses <> misses then
          Uapi.exit u 2)
  in
  Alcotest.(check bool) "exit 0 (values and hits verified)" true (Harness.all_exited_zero r);
  if not (!per_op <= 0.01) then
    Alcotest.failf "%.3f words allocated per get/set/get_byte/set_byte (floor 0.01)" !per_op

let test_stack_alloc_floor () =
  let before = allocated_words () in
  let r = Harness.run_program ~cloaked:true (fun _env -> ()) in
  let words = allocated_words () -. before in
  Alcotest.(check bool) "exit 0" true (Harness.all_exited_zero r);
  if not (words < 100_000.) then
    Alcotest.failf "empty cloaked run allocated %.0f words (floor 100000)" words

(* --- harness determinism --- *)

let test_harness_determinism () =
  let go () =
    let r = Harness.run_program ~cloaked:true (Workloads.Fileio.run
              { Workloads.Fileio.default with operations = 50 } ~use_shim:true) in
    r.Harness.cycles
  in
  Alcotest.(check int) "two identical runs, identical cycles" (go ()) (go ())

let test_table_formatting () =
  Alcotest.(check string) "ratio" "2.50x" (Harness.Table.ratio 2 5);
  Alcotest.(check string) "ratio div0" "n/a" (Harness.Table.ratio 0 5);
  Alcotest.(check string) "overhead" "+50.0%" (Harness.Table.percent_overhead ~base:100 150);
  Alcotest.(check string) "negative overhead" "-25.0%"
    (Harness.Table.percent_overhead ~base:100 75);
  Alcotest.(check string) "kcy" "1.5 kcy" (Harness.Table.cycles 1500);
  Alcotest.(check string) "Mcy" "2.50 Mcy" (Harness.Table.cycles 2_500_000);
  Alcotest.(check string) "Gcy" "1.00 Gcy" (Harness.Table.cycles 1_000_000_000)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "workloads"
    [
      ( "spec determinism",
        List.map
          (fun k -> quick k.Workloads.Spec.name (test_kernel_deterministic k))
          Workloads.Spec.kernels );
      ( "spec cloaking transparency",
        List.map
          (fun k -> quick k.Workloads.Spec.name (test_kernel_cloaking_transparent k))
          Workloads.Spec.kernels );
      ( "applications",
        [
          quick "webserver native" (test_webserver ~cloaked:false);
          quick "webserver cloaked" (test_webserver ~cloaked:true);
          quick "kvstore native" (test_kvstore ~cloaked:false);
          quick "kvstore cloaked" (test_kvstore ~cloaked:true);
          quick "fileio native" (test_fileio ~cloaked:false);
          quick "fileio cloaked" (test_fileio ~cloaked:true);
          quick "build native" (test_build ~cloak_workers:false);
          quick "build cloaked" (test_build ~cloak_workers:true);
        ] );
      ( "membuf",
        [
          quick "roundtrip" test_membuf_roundtrip;
          quick "bounds" test_membuf_bounds;
          quick "zero-alloc TLB hits" test_access_alloc_floor;
          quick "empty-run alloc floor" test_stack_alloc_floor;
        ] );
      ( "harness",
        [
          quick "determinism" test_harness_determinism;
          quick "table formatting" test_table_formatting;
        ] );
    ]
