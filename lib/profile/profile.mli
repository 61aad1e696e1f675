(** Exact hierarchical cycle attribution over a flight-recorder stream.

    The flight recorder ({!Trace}) answers "how do latencies distribute
    per span class"; this module answers "which nested context spent the
    cycles". It folds the recorded span enter/exit events into a
    call-context tree — e.g. [fileio / syscall:read / world_switch] — and
    attributes to every node:

    - {b total} cycles: time between the span's enter and exit, including
      nested spans;
    - {b self} cycles: total minus the children's totals — the node's own
      cost;
    - {b count}: completed spans folded into the node (instant events
      fold in as zero-cycle child nodes, so event counts attribute
      hierarchically too).

    Attribution is {e exact}, not sampled: every span boundary in the
    stream is stamped with the deterministic model-cycle clock, so two
    profiles of the same seed are identical and a cycle appears in
    exactly one node's self time. The root's total is pinned to the run's
    model-cycle count; root self-time is the part of the run no recorded
    span covers (uninstrumented guest compute).

    A profile is only meaningful over a complete stream. If the trace
    ring evicted events ({!Trace.dropped} > 0), enters may be orphaned
    from their exits and the tree would silently mis-attribute — so
    {!of_trace} refuses with {!Truncated} instead of returning a wrong
    tree. *)

exception Truncated of int
(** Raised by {!of_trace} when the ring dropped this many events. *)

exception Error of string
(** Attribution failure: the stream's span cycles exceed the declared
    run total (clock misuse), or similar internal inconsistency. *)

type node = {
  label : string;
  total : int;
  self : int;
  count : int;
  children : node list;  (** sorted by total cycles, descending *)
}

type t

val of_trace : root:string -> total_cycles:int -> Trace.t -> t
(** Fold the sink's retained stream. [root] labels the tree's root
    (conventionally the workload name); [total_cycles] is the run's
    model-cycle count and becomes the root's total exactly. Raises
    {!Truncated} if the ring evicted events; {!Error} if the spans sum
    past [total_cycles]. *)

val of_events : root:string -> total_cycles:int -> Trace.event list -> t
(** Same fold over an explicit event list (tests, saved streams). *)

val root : t -> node
val total_cycles : t -> int

(** {1 Queries} *)

val top_self : t -> n:int -> (string list * node) list
(** The [n] nodes with the largest self time, each with its path from the
    root (root label included), descending. *)

val sum_self : t -> int
(** Σ self over every node — always equal to the root's total. *)

val hot_spots :
  root:string -> total_cycles:int -> n:int -> Trace.t -> (string * int) list
(** Best-effort top-[n] self-cycle contexts as [(";"-joined path, self)]
    rows — the "top-regression hint" the chaos/soak harnesses attach to
    their reports. Returns [[]] when the ring was truncated (attribution
    would be unsound; callers surface {!Trace.dropped} instead). *)

(** {1 Rendering} *)

val pp_tree : ?min_pct:float -> Format.formatter -> t -> unit
(** Indented call-context tree: total, self, count per node. Nodes below
    [min_pct] percent of the root total are folded into an ellipsis line
    (default 0.1). *)

val pp_top : n:int -> Format.formatter -> t -> unit
(** The top-[n] self-cycle table with per-node share of the run. *)

val to_collapsed : t -> string
(** Collapsed-stack format, one line per node with positive self time or
    span count: [root;syscall:read;world_switch 12345] — the input
    flamegraph.pl and speedscope expect. Weights are self cycles. *)

val of_collapsed : string -> (string list * int) list
(** Parse collapsed-stack text back to (path, weight) rows — the
    round-trip used by tests and differential tooling. *)

(** {1 Differential profiles} *)

type delta = {
  path : string list;
  base_total : int;   (** 0 when the node is new *)
  cur_total : int;    (** 0 when the node vanished *)
  base_self : int;
  cur_self : int;
  base_count : int;
  cur_count : int;
}

val diff : base:t -> cur:t -> delta list
(** Per-path comparison of two profiles (cloaked vs native, run vs run),
    sorted by |cur_self - base_self| descending. Paths are compared below
    the root label, so differently-named roots still align. *)

val pp_diff :
  ?n:int -> base_name:string -> cur_name:string ->
  Format.formatter -> delta list -> unit
