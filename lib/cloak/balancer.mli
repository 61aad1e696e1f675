(** Fleet supervision policy: failure detection, admission control and
    load routing for a fleet of VMM hosts serving cloaked processes.

    This is the pure policy half of fleet supervision — the driver
    ({!Harness.Fleet}) feeds in heartbeats, misses and error counts and
    asks three questions:

    - {b is this host sick?} {!suspicion} accrues phi-accrual-style
      evidence: consecutive missed heartbeats (a unit each), how overdue
      the next beat is relative to the learned EWMA inter-beat gap
      (capped at one unit) and a bounded error-rate term. Crossing
      {!threshold} makes the host [Suspect] — the driver then drains its
      cloaked processes onto healthy peers via {!Cloak.Migrate}.
    - {b where does this request go?} {!route} picks the least-loaded
      routable host (lowest index on ties, so routing is deterministic)
      under a per-host admission bound. A request that cannot be placed
      is shed with a typed {!shed_reason} — never queued unboundedly,
      never silently dropped.
    - {b when does a lost host come back?} {!tick} promotes [Dead] hosts
      to [Rejoining] (reduced admission) after a backoff, then to
      [Healthy] after another interval of good behaviour.

    State machine: [Healthy → Suspect] (suspicion crossed threshold),
    [Suspect → Healthy] (heartbeat received), [Healthy/Suspect →
    Draining] ({!begin_drain}), [Draining → Dead] ({!mark_drained}:
    processes migrated away), [any → Dead] ({!mark_dead}: crash), [Dead →
    Rejoining → Healthy] ({!tick}, backoff-gated). Losing any host also
    flips the fleet into reduced service: every host's admission bound
    halves, trading sheds for bounded queues. *)

type state = Healthy | Suspect | Draining | Dead | Rejoining

val state_to_string : state -> string

(** Why a request was shed. Every rejection is typed and immediate — the
    client never hangs on a host that will not answer. *)
type shed_reason =
  | Overload       (** every routable host is at its admission bound *)
  | Draining_host  (** room exists only behind a draining host *)
  | No_capacity    (** no routable host at all (reduced service floor) *)

val shed_to_string : shed_reason -> string

type t

val create :
  hosts:int ->
  ?threshold:float ->
  ?queue_bound:int ->
  ?rejoin_backoff:int ->
  unit ->
  t
(** [threshold] (default 2.0) is the suspicion level that marks a host
    Suspect; [queue_bound] (default 6) the per-host admission bound
    (halved in reduced service / for rejoining hosts); [rejoin_backoff]
    (default 0 = never) the cycles a dead host sits out before
    re-admission. *)

val state : t -> int -> state
val states : t -> state array
val threshold : t -> float
val queue_bound : t -> int

(** {1 Failure detection} *)

val heartbeat : t -> int -> now:int -> unit
(** Host [i] checked in at cycle [now]: updates the EWMA gap, clears
    consecutive misses, recovers [Suspect → Healthy]. *)

val missed_heartbeat : t -> int -> unit
(** A heartbeat from host [i] was lost in the hostile network. *)

val record_error : t -> int -> unit
(** One contained fault observed on host [i]. *)

val suspicion : t -> int -> now:int -> float
val suspect : t -> int -> now:int -> bool
(** [suspect] also latches [Healthy → Suspect] when the threshold is
    crossed. *)

val mean_gap : t -> int -> float
(** The learned inter-heartbeat gap for host [i] (0 until two beats) —
    what a driver multiplies by {!threshold} to get the detection
    latency of a silent crash. *)

(** {1 State machine} *)

val begin_drain : t -> int -> unit
val mark_drained : t -> int -> now:int -> unit
val mark_dead : t -> int -> now:int -> unit
val tick : t -> now:int -> unit
(** Advance re-admission: [Dead → Rejoining → Healthy] as backoffs
    expire. No-op when [rejoin_backoff] is 0. *)

(** {1 Routing} *)

val load : t -> int -> int

val set_load : t -> int -> int -> unit
(** Overwrite host [i]'s load outright — the direct form of the feed
    below, for drivers (and tests) that push occupancy instead of
    binding a gauge. Negative values clamp to 0. *)

val bind_load : t -> (int -> int) -> unit
(** Bind the continuous load signal: [feed i] returns host [i]'s current
    queue depth (typically a telemetry gauge, e.g.
    [Telemetry.gauge_value tel ~host:i "queue-depth"]). Every {!route}
    refreshes routable hosts' occupancy from the feed before choosing;
    dead and draining hosts are not polled — their load is pinned to 0
    by the state machine. *)

val serving : t -> int
(** Routable hosts (Healthy, Suspect or Rejoining). *)

val reduced_service : t -> bool
(** Some capacity is lost; admission bounds are halved fleet-wide. *)

val route : t -> (int, shed_reason) result
(** Place one request: least-loaded routable host under its admission
    bound, or a typed shed. Occupancy comes from the bound load feed
    ({!bind_load}), refreshed on every call; without a feed, from the
    last {!set_load}. *)
