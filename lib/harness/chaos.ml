(* The chaos harness: seeded runs of a mixed cloaked/uncloaked workload
   under randomized fault plans, checking the three hostile-world
   invariants (no escaped exception, no plaintext leak, deterministic
   replay). See chaos.mli. *)

open Machine
open Guest

let secret = "CHAOS-CANARY-TOP-SECRET-PAYLOAD!"

(* --- the workload ---

   A cloaked protagonist carries the secret through every subsystem the
   fault plans target: cloaked heap and mmap memory (paging, TLB,
   machine memory), a protected file via the shim (metadata export/import,
   filesystem, block device), fork (re-keying), a pipe (with an innocuous
   payload: pipes are uncloaked channels), and enough compute to take
   timer interrupts. An uncloaked antagonist creates memory pressure and
   disk traffic so eviction and writeback churn under the same faults.

   The programs never assert: under injection, data corruption inside a
   process's own domain is a legal outcome (reported via exit status 3),
   and security faults, OOM kills and EIO terminations are exactly what
   the containment layer is being tested on. *)

let protagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let sh = Oshim.Shim.install u in
  let slen = String.length secret in
  (* the secret lives in cloaked anonymous memory *)
  let sb = Uapi.malloc u 64 in
  Uapi.store u ~vaddr:sb (Bytes.of_string secret);
  let vpn = Uapi.mmap u ~pages:3 ~cloaked:true () in
  let base = Addr.vaddr_of_vpn vpn in
  for i = 0 to 2 do
    Uapi.store u ~vaddr:(base + (i * Addr.page_size)) (Bytes.of_string secret)
  done;
  Uapi.compute u ~cycles:300_000;
  (* protected file round trip: ciphertext + authenticated metadata on disk *)
  let f = Oshim.Shim_io.create sh ~path:"/vault" ~pages:2 in
  Oshim.Shim_io.write sh f ~pos:0 (Bytes.of_string secret);
  Oshim.Shim_io.write sh f ~pos:Addr.page_size (Bytes.of_string secret);
  Oshim.Shim_io.save sh f;
  Oshim.Shim_io.close sh f;
  let f2 = Oshim.Shim_io.open_existing sh ~path:"/vault" in
  let back = Oshim.Shim_io.read sh f2 ~pos:0 ~len:slen in
  Oshim.Shim_io.save sh f2;
  Oshim.Shim_io.close sh f2;
  (* fork a child that inherits (and re-reads) the secret; ping it through
     a pipe with a public payload *)
  let rfd, wfd = Uapi.pipe u in
  let child (env' : Abi.env) =
    let u' = Uapi.of_env env' in
    Uapi.close u' rfd;
    let copy = Uapi.load u' ~vaddr:sb ~len:slen in
    Uapi.compute u' ~cycles:50_000;
    let pub = Uapi.malloc u' 32 in
    Uapi.store u' ~vaddr:pub (Bytes.of_string "chaos-child-checked-in-pid");
    ignore (Uapi.write u' ~fd:wfd ~vaddr:pub ~len:26);
    Uapi.close u' wfd;
    Uapi.exit u' (if Bytes.to_string copy = secret then 0 else 3)
  in
  ignore (Uapi.fork u ~child);
  Uapi.close u wfd;
  let ping = Uapi.read_bytes u ~fd:rfd ~len:26 in
  Uapi.close u rfd;
  ignore (Uapi.wait u);
  Uapi.munmap u ~start_vpn:vpn ~pages:3;
  let ok = Bytes.to_string back = secret && Bytes.length ping > 0 in
  Uapi.exit u (if ok then 0 else 3)

let antagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let public = Bytes.of_string "public-log-entry-nothing-hidden" in
  Uapi.mkdir u "/pub";
  for i = 0 to 3 do
    let fd =
      Uapi.openf u (Printf.sprintf "/pub/f%d" i) [ Abi.O_CREAT; Abi.O_RDWR ]
    in
    for _ = 1 to 4 do
      Uapi.write_bytes u ~fd public
    done;
    Uapi.close u fd
  done;
  Uapi.sync u;
  (* memory pressure: touch enough pages to force eviction of the
     protagonist's cloaked pages through the swap path *)
  let vpn = Uapi.mmap u ~pages:48 () in
  let base = Addr.vaddr_of_vpn vpn in
  for i = 0 to 47 do
    Uapi.store_byte u ~vaddr:(base + (i * Addr.page_size)) (i land 0xff)
  done;
  Uapi.compute u ~cycles:200_000;
  for i = 0 to 47 do
    ignore (Uapi.load_byte u ~vaddr:(base + (i * Addr.page_size)))
  done;
  for i = 0 to 3 do
    let path = Printf.sprintf "/pub/f%d" i in
    let fd = Uapi.openf u path [ Abi.O_RDONLY ] in
    ignore (Uapi.read_bytes u ~fd ~len:(Bytes.length public));
    Uapi.close u fd;
    Uapi.unlink u path
  done;
  Uapi.exit u 0

(* Small enough guest memory that the two processes genuinely compete. *)
let kconfig =
  {
    Kernel.default_config with
    guest_pages = 96;
    fs_blocks = 256;
    swap_blocks = 256;
  }

(* --- one seeded run --- *)

type report = {
  seed : int;
  plan : Inject.plan;
  hdr : Scenario.header;
  injections : int;
  contained : int;
  exit_statuses : (int * int option) list;
  trace_dropped : int;
  hot_spots : (string * int) list;
}

let run_once ~seed =
  let plan = Inject.random_plan ~seed in
  let engine = Inject.create plan in
  let vconfig = Scenario.vconfig ~salt:0xC4A05 ~seed in
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~engine ~trace () in
  let k = Kernel.create ~config:kconfig vmm in
  let pids =
    [ Kernel.spawn k ~cloaked:true protagonist; Kernel.spawn k antagonist ]
  in
  let crash =
    try
      Kernel.run k;
      None
    with e -> Some (Printexc.to_string e)
  in
  {
    seed;
    plan;
    hdr =
      Scenario.observe ~crash ~leaks:(Scenario.scan_leaks ~pattern:secret vmm k)
        vmm trace;
    injections = Inject.injections engine;
    contained = (Cloak.Vmm.counters vmm).contained;
    exit_statuses = List.map (fun pid -> (pid, Kernel.exit_status k ~pid)) pids;
    trace_dropped = Trace.dropped trace;
    hot_spots =
      Profile.hot_spots ~root:"chaos"
        ~total_cycles:(Cost.cycles (Cloak.Vmm.cost vmm))
        ~n:3 trace;
  }

let pp_report ppf r =
  Format.fprintf ppf "seed %d: %d injections, %d contained, %s@." r.seed
    r.injections r.contained
    (match r.hdr.crash with
    | Some m -> "CRASH " ^ m
    | None -> (
        match r.hdr.leaks with
        | [] -> "clean"
        | l -> "LEAK " ^ String.concat ", " l));
  (match Scenario.truncation_note r.hdr.audit_dropped with
  | Some note -> Format.fprintf ppf "    %s@." note
  | None -> ());
  (match r.hot_spots with
  | [] ->
      if r.trace_dropped > 0 then
        Format.fprintf ppf
          "    top cost centers unavailable: trace ring dropped %d events@."
          r.trace_dropped
  | spots ->
      Format.fprintf ppf "    top cost centers:%s@."
        (String.concat ""
           (List.map (fun (p, cy) -> Printf.sprintf " %s=%dcy" p cy) spots)));
  List.iter
    (fun f -> Format.fprintf ppf "    TRACE %s@." f)
    r.hdr.trace_failures;
  List.iter (fun line -> Format.fprintf ppf "    %s@." line) r.hdr.audit

(* --- the scenario: one hostile cell per seed, replayed --- *)

let scenario =
  {
    Scenario.name = "chaos";
    bench = "chaos";
    doc = "seeded fault-injection sweep checking the hostile-world invariants";
    default_seeds = 10;
    ok = "all invariants held: no escapes, no leaks, deterministic replay";
    run_seed =
      (fun c ->
        Scenario.cell c ~replay:true "hostile" ~header:(fun r -> r.hdr)
          (fun () -> run_once ~seed:(Scenario.seed c)));
    pp = pp_report;
    aggregate =
      (fun rs ->
        let kills r = List.length (List.filter (fun (_, s) -> s = Some (-2)) r.exit_statuses) in
        ( [ ("injections", Report.Int (Scenario.sum (fun r -> r.injections) rs));
            ("contained", Report.Int (Scenario.sum (fun r -> r.contained) rs));
            ("security_kills", Report.Int (Scenario.sum kills rs)) ],
          [] ));
  }
