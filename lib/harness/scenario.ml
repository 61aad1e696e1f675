(* The seed-sweep runner every antagonist harness is built on: shared
   stack helpers, the per-cell header and its uniform checks, the one
   replay rule, and the seeds -> cells -> aggregates loop. See
   scenario.mli. *)

open Machine
open Guest

let contains_pattern pattern data =
  let n = String.length pattern and len = Bytes.length data in
  let rec at i j = j >= n || (Bytes.get data (i + j) = pattern.[j] && at i (j + 1)) in
  let rec go i = i + n <= len && (at i 0 || go (i + 1)) in
  go 0

let scan_leaks ~pattern vmm k =
  let leaks = ref [] in
  let add where = if not (List.mem where !leaks) then leaks := where :: !leaks in
  let mem = Cloak.Vmm.mem vmm in
  Phys_mem.iter_allocated mem (fun mpn data ->
      if contains_pattern pattern data then add (Printf.sprintf "machine page %d" mpn));
  Phys_mem.iter_remanent mem (fun mpn data ->
      if contains_pattern pattern data then add (Printf.sprintf "remanent page %d" mpn));
  let scan_dev name dev =
    for b = 0 to Blockdev.block_count dev - 1 do
      if contains_pattern pattern (Blockdev.peek dev b) then
        add (Printf.sprintf "%s block %d" name b)
    done
  in
  scan_dev "disk" (Kernel.disk k);
  scan_dev "swap" (Kernel.swap_device k);
  List.rev !leaks

(* Seeds spaced by a prime so consecutive sweep indices cannot alias the
   generators' xor-based salts. *)
let seeds_from ~base ~count = List.init (max 0 count) (fun i -> base + (i * 7919))

let vconfig ~salt ~seed =
  { Cloak.Vmm.default_config with seed = salt lxor (seed * 0x2545F491) }

(* --- cells --- *)

type header = {
  crash : string option;
  leaks : string list;
  audit : string list;
  audit_dropped : int;
  trace_failures : string list;
}

let observe ?(crash = None) ?(leaks = []) vmm trace =
  {
    crash;
    leaks;
    audit = Inject.Audit.lines (Cloak.Vmm.audit vmm);
    audit_dropped = Inject.Audit.dropped (Cloak.Vmm.audit vmm);
    trace_failures = Trace.Check.verdict trace;
  }

let truncation_note dropped =
  if dropped <= 0 then None
  else Some (Printf.sprintf "audit window truncated (%d entries dropped)" dropped)

let determinism_failure a b =
  if a.audit = b.audit then None
  else
    match truncation_note (max a.audit_dropped b.audit_dropped) with
    | Some note -> Some (note ^ ": replay comparison covers different windows")
    | None -> Some "nondeterministic: same seed produced different audit logs"

type ctx = { c_seed : int; c_index : int; mutable c_failures : string list }

let seed c = c.c_seed
let index c = c.c_index
let fail c msg = c.c_failures <- msg :: c.c_failures

let cell c ?(replay = false) label ~header run =
  let x = run () in
  let h = header x in
  let failf fmt = Printf.ksprintf (fun m -> fail c (label ^ ": " ^ m)) fmt in
  Option.iter (failf "uncaught exception: %s") h.crash;
  if h.leaks <> [] then failf "canary leaked to: %s" (String.concat ", " h.leaks);
  List.iter (failf "trace invariant: %s") h.trace_failures;
  if replay then Option.iter (failf "%s") (determinism_failure h (header (run ())));
  x

(* --- scenarios --- *)

type 'r t = {
  name : string;
  bench : string;
  doc : string;
  default_seeds : int;
  ok : string;
  run_seed : ctx -> 'r;
  pp : Format.formatter -> 'r -> unit;
  aggregate : 'r list -> (string * Report.t) list * string list;
}

type any = Any : 'r t -> any
type 'r seed = { seed : int; report : 'r; failures : string list }

type 'r verdict = {
  seeds : 'r seed list;
  metrics : (string * Report.t) list;
  failures : string list;
}

let run_one ?(index = 0) sc ~seed =
  let c = { c_seed = seed; c_index = index; c_failures = [] } in
  let report = sc.run_seed c in
  { seed; report; failures = List.rev c.c_failures }

let summarize sc seeds =
  let metrics, sweep_failures = sc.aggregate (List.map (fun s -> s.report) seeds) in
  {
    seeds;
    metrics = ("seeds", Report.Int (List.length seeds)) :: metrics;
    failures =
      List.concat_map
        (fun s -> List.map (Printf.sprintf "seed %d: %s" s.seed) s.failures)
        seeds
      @ sweep_failures;
  }

let run ?(progress = fun _ -> ()) sc ~seeds =
  summarize sc
    (List.mapi
       (fun index seed ->
         let s = run_one ~index sc ~seed in
         progress s;
         s)
       seeds)

let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs
let exit_code v = if v.failures = [] then 0 else 1

let bench_doc ~name ~wall_s ~failures metrics =
  Report.bench ~name
    (metrics
    @ [ ("wall_s", Report.Float wall_s);
        ("failures", Report.Int (List.length failures)) ])

let metric v key = Option.get (Report.member key (Report.Obj v.metrics))
let int v key = Option.get (Report.to_int (metric v key))
let float v key = Option.get (Report.to_float (metric v key))

let rec show = function
  | Report.List l -> Printf.sprintf "[%d entries]" (List.length l)
  | Report.Obj fields ->
      String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ show v) fields)
  | v -> String.trim (Report.to_string v)

let pp_metrics ppf metrics =
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %s@." k (show v)) metrics
