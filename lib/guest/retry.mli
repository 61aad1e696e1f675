(** Bounded retry with exponential backoff — the single policy behind every
    transient-device-error path in the guest. Previously the page cache and
    the swap path each carried their own copy of this loop; keeping one
    implementation keeps the cycle-charging (and therefore the
    deterministic audit/cost story) identical everywhere. The migration
    driver ({!Harness.Migrate}) reuses the same loop with a deadline and
    seeded jitter, so its per-chunk robustness story is this one tested
    policy rather than a private reimplementation. *)

exception Deadline_exceeded
(** A ready-made [exhausted] exception for callers that want to distinguish
    "ran out of budget" from the path's usual error. *)

val with_backoff :
  ?deadline_cycles:int ->
  ?jitter:Oscrypto.Prng.t ->
  limit:int ->
  retryable:(exn -> bool) ->
  charge:(cycles:int -> unit) ->
  base_cost:int ->
  exhausted:exn ->
  (unit -> 'a) ->
  'a
(** [with_backoff ~limit ~retryable ~charge ~base_cost ~exhausted f] runs
    [f]. On the [a]-th failure with an exception [retryable] accepts
    (counting from 0), it calls [charge ~cycles:(base_cost * 2^a)] — the
    backoff charges are strictly increasing — then retries, up to [limit]
    retries; the failure after the last permitted retry raises [exhausted]
    instead. [f] therefore runs at most [limit + 1] times, [charge] is
    invoked exactly once per failure, and success after [k] failures has
    charged exactly [k] backoffs. Non-retryable exceptions propagate
    unchanged.

    [?jitter] adds a seeded uniform draw in [0, backoff) to each backoff
    (deterministic for a given PRNG state — desynchronizes retry storms
    without breaking reproducibility). [?deadline_cycles] bounds the
    {e cumulative} backoff budget: when the charges for a failure push the
    total past the deadline, [exhausted] is raised even if attempts
    remain. Omitting both leaves the historical behaviour byte-identical. *)

val io_deadline_cycles : Cloak.Vmm.t -> int
(** The default cumulative-backoff ceiling for guest device retries
    (16 × the cost model's [disk_op]). Strictly above the 15 × [disk_op] a
    full {!io_retry_limit} exhaustion charges, so passing it to {!disk}
    never changes fault-free behaviour — it exists so a hostile kernel
    returning eternal [EIO] yields a typed, bounded degradation rather
    than an unbounded stall of the cloaked process. *)

val disk :
  ?deadline_cycles:int -> ?jitter:Oscrypto.Prng.t -> Cloak.Vmm.t ->
  (unit -> 'a) -> 'a
(** The guest's device-I/O instance: retries {!Blockdev.Io_error} up to
    3 times, charging idle disk waits ([disk_op * 2^a])
    and bumping the [io_retries] counter once per failure, then raises
    [Errno.Error EIO]. A failed DMA has no effect, so the retry is always
    safe. [?deadline_cycles] / [?jitter] pass through to
    {!with_backoff}. *)
