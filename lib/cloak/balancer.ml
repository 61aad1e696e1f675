(* Fleet supervision policy: phi-accrual-style suspicion from heartbeat
   gaps, a per-host availability state machine, and admission-controlled
   least-loaded routing with typed load shedding. Pure policy over
   counters the driver feeds in — no I/O, no VMM access. See
   balancer.mli. *)

type state = Healthy | Suspect | Draining | Dead | Rejoining

let state_to_string = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Draining -> "draining"
  | Dead -> "dead"
  | Rejoining -> "rejoining"

type shed_reason = Overload | Draining_host | No_capacity

let shed_to_string = function
  | Overload -> "overload"
  | Draining_host -> "draining-host"
  | No_capacity -> "no-capacity"

type host = {
  mutable st : state;
  mutable load : int;
  mutable beats : int;
  mutable missed : int;  (* consecutive missed heartbeats *)
  mutable errors : int;  (* contained faults charged to this host *)
  mutable last_beat : int;
  mutable mean_gap : float;  (* EWMA of inter-heartbeat gaps, cycles *)
  mutable rejoin_at : int;  (* next promotion time while Dead/Rejoining *)
}

type t = {
  hosts : host array;
  threshold : float;
  queue_bound : int;
  reduced_queue_bound : int;
  rejoin_backoff : int;
  mutable load_feed : (int -> int) option;
      (* telemetry gauge feed: host index -> current queue depth *)
}

let fresh_host () =
  {
    st = Healthy;
    load = 0;
    beats = 0;
    missed = 0;
    errors = 0;
    last_beat = 0;
    mean_gap = 0.0;
    rejoin_at = 0;
  }

let create ~hosts ?(threshold = 2.0) ?(queue_bound = 6) ?(rejoin_backoff = 0)
    () =
  if hosts <= 0 then invalid_arg "Balancer.create: hosts must be positive";
  if threshold <= 0.0 then invalid_arg "Balancer.create: threshold must be positive";
  if queue_bound <= 0 then invalid_arg "Balancer.create: queue_bound must be positive";
  {
    hosts = Array.init hosts (fun _ -> fresh_host ());
    threshold;
    queue_bound;
    reduced_queue_bound = max 1 (queue_bound / 2);
    rejoin_backoff;
    load_feed = None;
  }

let host t i = t.hosts.(i)
let state t i = (host t i).st
let load t i = (host t i).load
let threshold t = t.threshold
let queue_bound t = t.queue_bound

(* --- heartbeats and suspicion --- *)

(* EWMA weight for the inter-beat gap estimate: heavy enough on history
   that one slow beat does not erase the baseline. *)
let gap_alpha = 0.3

let heartbeat t i ~now =
  let h = host t i in
  if h.beats > 0 then begin
    let gap = float_of_int (max 0 (now - h.last_beat)) in
    h.mean_gap <-
      (if h.mean_gap = 0.0 then gap
       else ((1.0 -. gap_alpha) *. h.mean_gap) +. (gap_alpha *. gap))
  end;
  h.beats <- h.beats + 1;
  h.last_beat <- now;
  h.missed <- 0;
  if h.st = Suspect then h.st <- Healthy

let missed_heartbeat t i =
  let h = host t i in
  h.missed <- h.missed + 1

let record_error t i =
  let h = host t i in
  h.errors <- h.errors + 1

let mean_gap t i = (host t i).mean_gap

(* Phi-accrual in spirit: each consecutive missed heartbeat is a unit of
   suspicion, plus how overdue the next beat is relative to the learned
   gap (capped at one unit: a single silent interval is at most one
   beat's worth of evidence), plus a bounded contribution from the host's
   error rate. Crossing [threshold] (default two whole missed beats)
   marks the host Suspect. *)
let suspicion t i ~now =
  let h = host t i in
  let overdue =
    if h.mean_gap <= 0.0 || h.beats = 0 then 0.0
    else
      min 1.0
        (max 0.0 ((float_of_int (now - h.last_beat) /. h.mean_gap) -. 1.0))
  in
  let error_term = min 1.0 (float_of_int h.errors /. 16.0) in
  float_of_int h.missed +. overdue +. error_term

let suspect t i ~now =
  let h = host t i in
  let s = suspicion t i ~now in
  if s >= t.threshold && h.st = Healthy then h.st <- Suspect;
  s >= t.threshold

(* --- availability state machine --- *)

let begin_drain t i =
  let h = host t i in
  match h.st with
  | Healthy | Suspect -> h.st <- Draining
  | Draining | Dead | Rejoining -> ()

let mark_drained t i ~now =
  let h = host t i in
  h.st <- Dead;
  h.load <- 0;
  h.rejoin_at <- now + t.rejoin_backoff

let mark_dead t i ~now =
  let h = host t i in
  h.st <- Dead;
  h.load <- 0;
  h.rejoin_at <- now + t.rejoin_backoff

(* Re-admission with backoff: a Dead host whose backoff expired rejoins
   at reduced admission (Rejoining), then earns full service after one
   more backoff interval of good behaviour. [rejoin_backoff = 0] disables
   re-admission entirely (a retired host stays Dead). *)
let tick t ~now =
  if t.rejoin_backoff > 0 then
    Array.iter
      (fun h ->
        match h.st with
        | Dead when now >= h.rejoin_at ->
            h.st <- Rejoining;
            h.missed <- 0;
            h.errors <- 0;
            h.rejoin_at <- now + t.rejoin_backoff
        | Rejoining when now >= h.rejoin_at -> h.st <- Healthy
        | _ -> ())
      t.hosts

(* --- load accounting and routing --- *)

let set_load t i v = (host t i).load <- max 0 v
let bind_load t feed = t.load_feed <- Some feed

let routable h =
  match h.st with Healthy | Suspect | Rejoining -> true | Draining | Dead -> false

let serving t =
  Array.fold_left (fun n h -> if routable h then n + 1 else n) 0 t.hosts

(* Reduced-service mode: once any capacity is lost the whole fleet
   tightens its admission bound, trading sheds for bounded queues — the
   graceful-degradation half of the SLO. *)
let reduced_service t = serving t < Array.length t.hosts

let bound_for t h =
  if h.st = Rejoining || reduced_service t then t.reduced_queue_bound
  else t.queue_bound

(* Least-loaded routable host, lowest index on ties (determinism). A full
   fleet sheds typed: [Overload] when every candidate is at its bound,
   [Draining_host] when room exists only behind a draining host (the shed
   is attributable to the drain), [No_capacity] when nothing routes at
   all. *)
let route t =
  (* refresh occupancy from the bound telemetry feed before choosing;
     only routable hosts are polled — a dead host's gauge is stale by
     definition and its load is pinned to 0 by the state machine *)
  (match t.load_feed with
  | None -> ()
  | Some feed ->
      Array.iteri (fun i h -> if routable h then h.load <- max 0 (feed i)) t.hosts);
  let best = ref (-1) in
  Array.iteri
    (fun i h ->
      if routable h && (!best < 0 || h.load < t.hosts.(!best).load) then
        best := i)
    t.hosts;
  if !best < 0 then Error No_capacity
  else
    let h = t.hosts.(!best) in
    if h.load < bound_for t h then Ok !best
    else if
      Array.exists
        (fun h -> h.st = Draining && h.load < t.queue_bound)
        t.hosts
    then Error Draining_host
    else Error Overload

let states t = Array.map (fun h -> h.st) t.hosts
