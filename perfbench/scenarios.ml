(* The four benchmark workloads, built only from the stack's public entry
   points: [Harness.run] over [Workloads.*] programs, and
   [Harness.Fleet.run_once]. Every input that varies is drawn from the
   workload seed; the programs receive only the generated inputs. *)

open Machine
open Guest

(* How a stack run records. [Model_trace] keeps the VMM's cycle clock on
   the recorder; [Host_trace] swaps in the host's monotonic ns clock once
   the VMM has installed its own, so the spans the stack already emits
   carry host time instead. *)
type mode = Untraced | Model_trace | Host_trace

(* Round trips from a protected process into the untrusted kernel:
   syscalls, fault reports and timer ticks, timed from its dispatch call
   to the return. Model cycles always; host ns only in host-traced runs. *)
type probe = { host : bool; model_lat : Stats.Ibuf.t; host_lat : Stats.Ibuf.t }

let new_probe mode =
  { host = mode = Host_trace; model_lat = Stats.Ibuf.create (); host_lat = Stats.Ibuf.create () }

(* Wrap [env.dispatch] at program start — before [Shim.install] captures
   it as the shim's direct path — so the probe sees the kernel round trip
   beneath the shim. Exec resets [dispatch], so each image wraps itself. *)
let instrument probe (env : Abi.env) =
  let inner = env.Abi.dispatch in
  let cost = Cloak.Vmm.cost env.Abi.vmm in
  env.Abi.dispatch <-
    (fun call ->
      let c0 = Cost.cycles cost in
      let h0 = if probe.host then Stats.now_ns () else 0 in
      let v = inner call in
      Stats.Ibuf.add probe.model_lat (Cost.cycles cost - c0);
      if probe.host then Stats.Ibuf.add probe.host_lat (Stats.now_ns () - h0);
      v)

(* Every traced run must fit its recorder: a ring that evicts would make
   the self-time fold and the invariant pass unsound. *)
let trace_cap = 1 lsl 17

type run = {
  label : string;
  cloaked : bool;
  result : Harness.result;
  checksum : int;  (** twin-comparable output digest; 0 = self-verifying only *)
  probe : probe;
  trace : (Trace.t * int) option;  (** recorder, and events before spawn to skip *)
}

let run_stack ~mode ?kconfig spawn =
  let trace =
    match mode with Untraced -> None | Model_trace | Host_trace -> Some (Trace.ring ~cap:trace_cap ())
  in
  let skip = ref 0 in
  let spawn k =
    Option.iter
      (fun t ->
        if mode = Host_trace then Trace.set_clock t Stats.now_ns;
        skip := Trace.count t)
      trace;
    spawn k
  in
  let result = Harness.run ?kconfig ?trace ~spawn () in
  (result, Option.map (fun t -> (t, !skip)) trace)

(* One run of a batch: a named program, cloaked or as its native twin. *)
type op = { label : string; cloaked : bool; exec : mode -> run }

let op ~name ~cloaked f =
  let label = Printf.sprintf "%s/%s" name (if cloaked then "cloaked" else "native") in
  {
    label;
    cloaked;
    exec =
      (fun mode ->
        let probe = new_probe mode in
        let checksum = ref 0 in
        let result, trace = f ~probe ~checksum ~mode in
        { label; cloaked; result; checksum = !checksum; probe; trace });
  }

(* --- compute: the six E1 SPEC-style kernels --- *)

let compute_ops () =
  List.concat_map
    (fun (k : Workloads.Spec.kernel) ->
      List.map
        (fun cloaked ->
          op ~name:k.name ~cloaked (fun ~probe ~checksum ~mode ->
              run_stack ~mode (fun kern ->
                  [
                    Kernel.spawn kern ~cloaked (fun env ->
                        instrument probe env;
                        checksum := k.run (Uapi.of_env env) ~scale:Workloads.Spec.default_scale);
                  ])))
        [ false; true ])
    Workloads.Spec.kernels

(* --- syscall_io: the E3 mix --- *)

(* A protected server behind a pipe pair, driven by a closed-loop client
   (one client, waiting for each reply) that plays the network and stays
   uncloaked. *)
let client_server ?(prepare = ignore) ~server ~client ~probe ~cloaked ~mode () =
  run_stack ~mode (fun k ->
      let main env =
        let u = Uapi.of_env env in
        prepare u;
        let req_r, req_w = Uapi.pipe u in
        let resp_r, resp_w = Uapi.pipe u in
        ignore
          (Uapi.fork u ~child:(fun senv ->
               let su = Uapi.of_env senv in
               Uapi.close su req_w;
               Uapi.close su resp_r;
               let image =
                 let prog = server ~request_fd:req_r ~response_fd:resp_w in
                 fun env ->
                   instrument probe env;
                   prog env
               in
               if cloaked then Uapi.exec_cloaked su image else Uapi.exec su image));
        Uapi.close u req_r;
        Uapi.close u resp_w;
        client ~request_fd:req_w ~response_fd:resp_r env
      in
      [ Kernel.spawn k main ])

let fileio_seed ~seed = 1 + (seed land 0xFFFF)

let syscall_io_ops ~fileio_seed =
  let web = Workloads.Webserver.default in
  let kv = Workloads.Kvstore.default in
  let fio = { Workloads.Fileio.default with seed = fileio_seed } in
  let build = Workloads.Buildsim.default in
  List.concat_map
    (fun (name, f) -> List.map (fun cloaked -> op ~name ~cloaked (f ~cloaked)) [ false; true ])
    [
      ( "webserver",
        fun ~cloaked ~probe ~checksum:_ ~mode ->
          client_server ~probe ~cloaked ~mode
            ~prepare:(fun u -> Workloads.Webserver.populate u web)
            ~server:(Workloads.Webserver.server web ~use_shim:true)
            ~client:(Workloads.Webserver.client web) () );
      ( "kvstore",
        fun ~cloaked ~probe ~checksum:_ ~mode ->
          client_server ~probe ~cloaked ~mode
            ~server:(Workloads.Kvstore.server kv ~use_shim:true)
            ~client:(Workloads.Kvstore.client kv) () );
      ( "fileio",
        fun ~cloaked ~probe ~checksum:_ ~mode ->
          run_stack ~mode (fun k ->
              let prog = Workloads.Fileio.run fio ~use_shim:true in
              [
                Kernel.spawn k ~cloaked (fun env ->
                    instrument probe env;
                    prog env);
              ]) );
      (* the make-like driver is uncloaked; its workers exec into cloaked
         images inside the workload, out of the probe's reach *)
      ( "build",
        fun ~cloaked ~probe:_ ~checksum:_ ~mode ->
          run_stack ~mode (fun k ->
              [ Kernel.spawn k (Workloads.Buildsim.driver build ~cloak_workers:cloaked) ]) );
    ]

(* --- paging: a cloaked working set larger than guest memory --- *)

let paging_pages = 192
let paging_pool = 128
let paging_passes = 4

(* The page order, drawn from the seed. Every pass walks the same
   order: a cyclic walk over more pages than the pool holds makes every
   touch miss whichever order the seed picks, so the fault count — and
   with it the crypto work — does not drift between seeds. *)
let paging_order ~seed =
  let rng = Oscrypto.Prng.create ~seed:(seed lxor 0x9A61) in
  let a = Array.init paging_pages Fun.id in
  for i = paging_pages - 1 downto 1 do
    let j = Oscrypto.Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let page_value ~pass p = ((pass * 37) + (p * 11) + 1) land 0xff

(* Even passes write one byte per page (dirtying it); odd passes scan
   read-only and verify the previous pass's bytes, so each pass evicts
   dirty pages, refaults them, and evicts pages left clean. The checksum
   folds every byte read back. *)
let paging_program ~order ~checksum env =
  let u = Uapi.of_env env in
  let base = Uapi.malloc u (paging_pages * Addr.page_size) in
  let addr p = base + (p * Addr.page_size) + (p * 13 mod Addr.page_size) in
  for pass = 0 to paging_passes - 1 do
    Array.iter
      (fun p ->
        if pass mod 2 = 0 then Uapi.store_byte u ~vaddr:(addr p) (page_value ~pass p)
        else begin
          let v = Uapi.load_byte u ~vaddr:(addr p) in
          if v <> page_value ~pass:(pass - 1) p then Uapi.exit u 1;
          checksum := (!checksum * 31) + v
        end)
      order
  done

let paging_ops ~seed =
  let order = paging_order ~seed in
  let kconfig = { Kernel.default_config with guest_pages = paging_pool } in
  List.map
    (fun cloaked ->
      op ~name:"paging" ~cloaked (fun ~probe ~checksum ~mode ->
          run_stack ~mode ~kconfig (fun k ->
              [
                Kernel.spawn k ~cloaked (fun env ->
                    instrument probe env;
                    paging_program ~order ~checksum env);
              ])))
    [ false; true ]

(* --- fleet --- *)

let fleet_seed_count = 21

let fleet_seeds ~seed =
  let rng = Oscrypto.Prng.create ~seed:(seed lxor 0xF1EE) in
  List.init fleet_seed_count (fun _ -> 1 + Oscrypto.Prng.int rng 1_000_000)

let fleet_run seed = Harness.Fleet.run_once ~plan:(Harness.Fleet.fleet_plan ~seed) ~seed ()
