(** The one seed-sweep runner behind every antagonist harness.

    Chaos, crash-matrix, soak, migrate, fleet and adversary all have the
    same shape: seeds, then cells per seed (fault-free, the hostile plan
    twice, blackhole; one cell per crash point for the crash matrix),
    then invariants, then aggregates that feed a printed summary, a BENCH
    file and an exit code. A scenario supplies only its plan (which cells
    a seed runs), its workload and its own invariants; this module runs
    the cells and applies the same checks to every one of them:

    - no exception escaped the stack ([header.crash]);
    - the canary is on no OS-visible surface ([header.leaks]);
    - the flight recorder's {!Trace.Check} verdict is clean;
    - a replayed cell reproduces its audit log bit for bit
      ({!determinism_failure}, the one replay rule). *)

(** {1 Shared stack helpers} *)

val contains_pattern : string -> bytes -> bool
(** Substring scan — the canary detector shared by every privacy check. *)

val scan_leaks : pattern:string -> Cloak.Vmm.t -> Guest.Kernel.t -> string list
(** Every OS-visible surface (allocated machine pages, RAM remanence, disk
    and swap blocks) holding [pattern], as human-readable locations. *)

val seeds_from : base:int -> count:int -> int list
(** [base, base+7919, ...] — prime-spaced so sweep indices cannot alias
    the plan generators' xor salts. *)

val vconfig : salt:int -> seed:int -> Cloak.Vmm.config
(** The per-seed VMM config every harness derives: default config with
    [seed = salt lxor (seed * 0x2545F491)]. Stacks sharing a salt and seed
    share the fleet master secret (what migration and fleet need); distinct
    salts keep harnesses' key material independent. *)

(** {1 Cells} *)

type header = {
  crash : string option;  (** exception that escaped the stack, if any *)
  leaks : string list;  (** OS-visible surfaces holding the canary *)
  audit : string list;  (** the cell's deterministic audit trail *)
  audit_dropped : int;  (** audit-ring entries lost to the bounded window *)
  trace_failures : string list;  (** {!Trace.Check.verdict} of the cell *)
}
(** What every cell reports, whatever else it measured. *)

val observe :
  ?crash:string option -> ?leaks:string list -> Cloak.Vmm.t -> Trace.t -> header
(** The header of a one-VMM cell: its audit ring and trace verdict, plus
    the given crash (default none) and leaks (default none). *)

val truncation_note : int -> string option
(** [truncation_note dropped]: the one phrasing of "the bounded audit ring
    wrapped" ([None] when [dropped <= 0]). *)

val determinism_failure : header -> header -> string option
(** The replay rule over two runs of one cell: [None] when the audit logs
    are bit-identical; otherwise a failure, prefixed with the truncation
    note when either ring wrapped (the windows differ, so the check could
    not be made — that is a failure too, never a silent pass). *)

type ctx
(** One seed's run: its seed, its position in the sweep and the failures
    found so far. *)

val seed : ctx -> int
val index : ctx -> int
(** Position of the seed in the sweep, from 0. *)

val fail : ctx -> string -> unit
(** Record one of the scenario's own invariant failures. *)

val cell :
  ctx -> ?replay:bool -> string -> header:('x -> header) -> (unit -> 'x) -> 'x
(** [cell ctx label ~header run] runs one cell, applies the uniform checks
    to its header (failures prefixed with [label]) and returns its result.
    With [~replay:true] it runs the cell a second time and applies
    {!determinism_failure} to the pair. *)

(** {1 Scenarios} *)

type 'r t = {
  name : string;  (** CLI subcommand *)
  bench : string;  (** BENCH benchmark name *)
  doc : string;
  default_seeds : int;
  ok : string;  (** the line printed when every check held *)
  run_seed : ctx -> 'r;  (** the plan: the seed's cells *)
  pp : Format.formatter -> 'r -> unit;  (** one seed's report *)
  aggregate : 'r list -> (string * Report.t) list * string list;
      (** every BENCH metric, computed once, plus sweep-level failures *)
}

type any = Any : 'r t -> any

type 'r seed = { seed : int; report : 'r; failures : string list }

type 'r verdict = {
  seeds : 'r seed list;
  metrics : (string * Report.t) list;
      (** ["seeds"] followed by the scenario's aggregates *)
  failures : string list;  (** every seed's failures, then the sweep's *)
}

val run_one : ?index:int -> 'r t -> seed:int -> 'r seed
(** One seed's cells and checks ([index] defaults to 0). *)

val summarize : 'r t -> 'r seed list -> 'r verdict

val run : ?progress:('r seed -> unit) -> 'r t -> seeds:int list -> 'r verdict
(** Every seed in order, then {!summarize}. *)

val sum : ('r -> int) -> 'r list -> int
(** [sum f reports]: the usual aggregate. *)

val exit_code : 'r verdict -> int
(** 0 iff no failure. *)

val bench_doc :
  name:string -> wall_s:float -> failures:string list -> (string * Report.t) list ->
  Report.t
(** The BENCH document: the metrics, then [wall_s] and the failure count. *)

val int : 'r verdict -> string -> int
val float : 'r verdict -> string -> float
(** A metric by BENCH key (raises [Invalid_argument] if absent). *)

val pp_metrics : Format.formatter -> (string * Report.t) list -> unit
(** The printed summary: one metric per line. *)
