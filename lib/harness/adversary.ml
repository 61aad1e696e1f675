(* The adversary sweep: every workload under a fully malicious kernel
   personality, per attack class, per seed, run twice. See adversary.mli. *)

open Machine
open Guest
module Adv = Attacks.Adversary

let secret = "ADVERSARY-CANARY-SECRET-PAYLOAD!"

(* Typed deaths the victim wrapper converts hostile-kernel outcomes into:
   a paraverification refusal and a bounded errno degradation. Everything
   else typed comes from the kernel/VMM (-2 security kill, -3 machine
   check, 137 OOM, 139 segv). *)
let exit_refused = 81
let exit_degraded = 82

let salt = 0xAD5A12

let kconfig =
  {
    Kernel.default_config with
    guest_pages = 96;
    fs_blocks = 256;
    swap_blocks = 256;
  }

(* --- the victims ---

   Each workload plants the canary in cloaked memory, runs its real work
   through the shim, publishes a digest of its output for the
   silent-corruption check, and converts typed hostile-kernel exceptions
   into distinguishable exit statuses. *)

type workload = {
  w_name : string;
  program : digest:int option ref -> Abi.program;
}

let plant_canary u =
  let vaddr = Uapi.malloc u (String.length secret + 8) in
  Uapi.store u ~vaddr (Bytes.of_string secret)

(* Give the identity attacks something to confuse: fork a child and insist
   the pid story stays coherent. Under an honest kernel this is invisible;
   under a lying one the shim's fork/wait/getpid paraverification either
   keeps the story straight or refuses typed. A confusion that reaches
   this check is a silent corruption (exit 1). *)
let exercise_identity u =
  ignore (Uapi.getpid u);
  let pid = Uapi.fork u ~child:(fun env' -> Uapi.exit (Uapi.of_env env') 0) in
  let reaped, _status = Uapi.wait u in
  if reaped <> pid then Uapi.exit u 1

(* Give the Iago lies a device data path to attack even in compute-bound
   cells: a small file round trip through the shim's marshal buffer. The
   payload is deliberately public — writing the cloaked canary to an
   ordinary file would be the application disclosing it, not the kernel
   stealing it. A mismatched read-back that the shim let through is a
   silent corruption (exit 1). *)
let io_payload = "adversary-io-roundtrip-payload!!"

let exercise_io u =
  let len = String.length io_payload in
  let fd = Uapi.openf u "/rt" [ Abi.O_CREAT; Abi.O_RDWR ] in
  let buf = Uapi.malloc u (len + 8) in
  Uapi.store u ~vaddr:buf (Bytes.of_string io_payload);
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Uapi.write u ~fd ~vaddr:(buf + !sent) ~len:(len - !sent)
  done;
  ignore (Uapi.lseek u ~fd ~pos:0 ~whence:Abi.Seek_set);
  let rbuf = Uapi.malloc u (len + 8) in
  let got = ref 0 in
  let eof = ref false in
  while !got < len && not !eof do
    let n = Uapi.read u ~fd ~vaddr:(rbuf + !got) ~len:(len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  Uapi.close u fd;
  if !got <> len || Uapi.load u ~vaddr:rbuf ~len <> Bytes.of_string io_payload then
    Uapi.exit u 1

let typed u body =
  try body ()
  with
  | Oshim.Shim.Hostile_os _ -> Uapi.exit u exit_refused
  | Errno.Error _ -> Uapi.exit u exit_degraded

let spec_workload (k : Workloads.Spec.kernel) =
  {
    w_name = "spec/" ^ k.Workloads.Spec.name;
    program =
      (fun ~digest (env : Abi.env) ->
        let u = Uapi.of_env env in
        typed u (fun () ->
            ignore (Oshim.Shim.install u);
            plant_canary u;
            exercise_identity u;
            exercise_io u;
            let sum = k.Workloads.Spec.run u ~scale:Workloads.Spec.default_scale in
            digest := Some sum;
            Uapi.exit u 0));
  }

let fileio_config = { Workloads.Fileio.default with operations = 60 }

let fileio_workload =
  {
    w_name = "fileio";
    program =
      (fun ~digest (env : Abi.env) ->
        let u = Uapi.of_env env in
        typed u (fun () ->
            plant_canary u;
            (* fileio self-checks every read-back, so a clean exit 0 is
               the digest *)
            digest := Some 0;
            Workloads.Fileio.run fileio_config ~use_shim:true env));
  }

let workloads = List.map spec_workload Workloads.Spec.kernels @ [ fileio_workload ]
let workload_for ~seed = List.nth workloads (abs seed mod List.length workloads)

(* --- one stack run --- *)

type raw = {
  raw_exit : int option;
  raw_digest : int option;
  raw_hdr : Scenario.header;
  raw_counters : Counters.t;
}

let run_stack ~seed ~(w : workload) ~adversary =
  let engine = Inject.create (Inject.plan ~seed []) in
  let vconfig = Scenario.vconfig ~salt ~seed in
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~engine ~trace () in
  let k = Kernel.create ~config:kconfig vmm in
  let adv = Option.map (fun cls -> Adv.create ~vmm ~cls ~seed) adversary in
  let digest = ref None in
  let pid =
    Kernel.spawn k ~cloaked:true (fun env ->
        (* the adversary arms first, so the shim's "direct" dispatcher is
           the liar — exactly the configuration paraverification defends *)
        (match adv with Some a -> Adv.arm a env | None -> ());
        w.program ~digest env)
  in
  let crash =
    try
      Kernel.run k;
      None
    with e -> Some (Printexc.to_string e)
  in
  {
    raw_exit = Kernel.exit_status k ~pid;
    raw_digest = !digest;
    raw_hdr =
      Scenario.observe ~crash ~leaks:(Scenario.scan_leaks ~pattern:secret vmm k)
        vmm trace;
    raw_counters = Cloak.Vmm.counters vmm;
  }

(* --- per-class verdicts --- *)

type outcome =
  | Survived  (** exited 0 with the fault-free digest *)
  | Refused   (** typed [Hostile_os] refusal, exit 81 *)
  | Degraded  (** typed errno degradation, exit 82 *)
  | Killed of int  (** VMM/kernel containment: -2, -3, 137, 139 *)
  | Silent of string  (** the one forbidden outcome *)

let outcome_name = function
  | Survived -> "survived"
  | Refused -> "refused"
  | Degraded -> "degraded"
  | Killed s -> Printf.sprintf "killed(%d)" s
  | Silent _ -> "SILENT"

let classify ~ff_digest raw =
  match raw.raw_exit with
  | Some 0 ->
      if raw.raw_digest = ff_digest then Survived
      else
        Silent
          (Printf.sprintf "completed with digest %s but fault-free produced %s"
             (match raw.raw_digest with Some d -> string_of_int d | None -> "none")
             (match ff_digest with Some d -> string_of_int d | None -> "none"))
  | Some s when s = exit_refused -> Refused
  | Some s when s = exit_degraded -> Degraded
  | Some 1 -> Silent "corrupted data reached the workload's own self-check"
  | Some s when s = -2 || s = -3 || s = 137 || s = 139 -> Killed s
  | Some s -> Silent (Printf.sprintf "untyped exit status %d" s)
  | None -> Silent "victim never exited (starved or wedged)"

type class_report = {
  cls : Adv.cls;
  attacks : int;
  lies_detected : int;
  refusals : int;
  outcome : outcome;
}

(* --- the scenario: fault-free baseline, then every class replayed --- *)

type seed_report = {
  seed : int;
  workload : string;
  classes : class_report list;
  attacks : int;
  lies_detected : int;
  refusals : int;
  survived : int;
  refused : int;
  degraded : int;
  killed : int;
}

let run_seed c =
  let seed = Scenario.seed c in
  let w = workload_for ~seed in
  let cell ?replay label adversary =
    Scenario.cell c ?replay label ~header:(fun r -> r.raw_hdr) (fun () ->
        run_stack ~seed ~w ~adversary)
  in
  let ff = cell "fault-free" None in
  if ff.raw_exit <> Some 0 then
    Scenario.fail c
      (Printf.sprintf "fault-free run of %s exited %s" w.w_name
         (match ff.raw_exit with Some s -> string_of_int s | None -> "never"));
  let classes =
    List.map
      (fun cls ->
        let label = "[" ^ Adv.class_name cls ^ "]" in
        let raw = cell ~replay:true label (Some cls) in
        let outcome = classify ~ff_digest:ff.raw_digest raw in
        (match outcome with
        | Silent what -> Scenario.fail c (label ^ " silent corruption: " ^ what)
        | _ -> ());
        let k = raw.raw_counters in
        {
          cls;
          attacks = k.Counters.adv_attacks;
          lies_detected = k.Counters.hostile_lies_detected;
          refusals = k.Counters.hostile_refusals;
          outcome;
        })
      Adv.classes
  in
  let count f = List.length (List.filter f classes) in
  let sum f = Scenario.sum f classes in
  {
    seed;
    workload = w.w_name;
    classes;
    attacks = sum (fun c -> c.attacks);
    lies_detected = sum (fun c -> c.lies_detected);
    refusals = sum (fun c -> c.refusals);
    survived = count (fun c -> c.outcome = Survived);
    refused = count (fun c -> c.outcome = Refused);
    degraded = count (fun c -> c.outcome = Degraded);
    killed = count (fun c -> match c.outcome with Killed _ -> true | _ -> false);
  }

let aggregate rs =
  let total f = Report.Int (Scenario.sum f rs) in
  ( [ ("classes", Report.Int (List.length Adv.classes));
      ("attacks", total (fun r -> r.attacks));
      ("lies_detected", total (fun r -> r.lies_detected));
      ("refusals", total (fun r -> r.refusals));
      ("survived", total (fun r -> r.survived));
      ("refused", total (fun r -> r.refused));
      ("degraded", total (fun r -> r.degraded));
      ("killed", total (fun r -> r.killed)) ],
    [] )

let pp_seed_report ppf r =
  Format.fprintf ppf "seed %d [%s]: %d attacks, %s@." r.seed r.workload r.attacks
    (String.concat " "
       (List.map
          (fun c ->
            Printf.sprintf "%s=%s" (Adv.class_name c.cls) (outcome_name c.outcome))
          r.classes))

let scenario =
  {
    Scenario.name = "adversary";
    bench = "adversary";
    doc = "every workload under a malicious kernel: Iago lies, remap/replay, identity";
    default_seeds = 20;
    ok =
      "all invariants held: zero plaintext leaks, zero silent corruptions \
       (fault-free digest or typed refusal), deterministic audit";
    run_seed;
    pp = pp_seed_report;
    aggregate;
  }
