# Tier-1 gate plus a short hostile-world smoke. `make ci` is what a
# pre-merge check should run; the full 25+-seed sweep lives in the test
# suite itself (test/test_chaos.ml).

DUNE ?= dune

.PHONY: all build test chaos-smoke recovery soak migrate fleet telemetry adversary trace profile regress perfbench-smoke ci clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# 10 seeded fault plans, each run twice (determinism check): fails on any
# escaped exception, plaintext leak, or nondeterministic audit log.
chaos-smoke: build
	$(DUNE) exec bin/overshadow_cli.exe -- chaos --seeds 10

# Power-cut the VMM at every journal/device write site across 20 seeds
# and check the recovery invariants; emits the crash-point coverage,
# replay-time and journal-overhead numbers as BENCH_recovery.json.
recovery: build
	$(DUNE) exec bin/overshadow_cli.exe -- crash-matrix --seeds 20 --bench-out BENCH_recovery.json

# Availability soak: a restart-aware cloaked service under sustained
# lethal fault plans, supervised (sealed checkpoints + restart-with-
# backoff) vs unsupervised; checks privacy across restarts, stale-
# checkpoint rejection and audit determinism, and emits the availability
# and MTTR numbers as BENCH_availability.json.
soak: build
	$(DUNE) exec bin/overshadow_cli.exe -- soak --seeds 20 --bench-out BENCH_availability.json

# Live migration over a hostile, lossy channel: per seed a clean, a
# hostile and a blackhole (all-loss) migration of a cloaked process
# between two VMMs, plus a crash matrix on the channel sites; checks
# single-incarnation, wire privacy, replay/tamper rejection and bounded
# downtime, and emits the downtime percentiles as BENCH_migration.json.
migrate: build
	$(DUNE) exec bin/overshadow_cli.exe -- migrate --seeds 20 --bench-out BENCH_migration.json

# Fleet supervisor under hostile open-loop load: a multi-VMM fleet of
# cloaked services behind a load balancer, with heartbeat-based failure
# detection, migration-based failover and typed load shedding; per seed a
# fault-free SLO run, the hostile plan twice (determinism) and a
# blackhole run; checks the latency budget, exactly-once failover and the
# supervised-beats-unsupervised goodput gap, and emits availability, shed
# and tail-latency numbers as BENCH_fleet.json.
fleet: build
	$(DUNE) exec bin/overshadow_cli.exe -- fleet --seeds 20 --bench-out BENCH_fleet.json

# Fleet telemetry proof: the same hostile fleet scenario with the
# per-host registries disabled and enabled must charge identical model
# cycles (trace ids ride the migration wire unconditionally), and the
# enabled run must stitch every committed failover into one cross-host
# causal trace and page the burn-rate monitor on host death while a
# fault-free replay stays silent; emits BENCH_telemetry.json.
telemetry: build
	$(DUNE) exec bin/overshadow_cli.exe -- telemetry --bench-out BENCH_telemetry.json

# Adversarial-OS sweep: every workload under the malicious-kernel
# personality — lying syscall returns (Iago), address-space remap/replay,
# identity confusion and scheduling attacks — one class per cell, each
# cell run twice against a fault-free baseline; asserts zero plaintext
# leaks, zero silent corruptions (fault-free digest or a typed refusal)
# and a deterministic audit, and emits the attack/refusal tallies as
# BENCH_adversary.json.
adversary: build
	$(DUNE) exec bin/overshadow_cli.exe -- adversary --seeds 20 --bench-out BENCH_adversary.json

# Flight-recorder overhead proof: run cloaked workloads under the null
# sink and under a live ring and assert both add zero model cycles over
# an untraced baseline; emits BENCH_trace_overhead.json. Also prints the
# per-span-class latency decomposition for one workload as a smoke test.
trace: build
	$(DUNE) exec bin/overshadow_cli.exe -- trace-overhead --out BENCH_trace_overhead.json
	$(DUNE) exec bin/overshadow_cli.exe -- trace fileio --cloaked

# Profiler smoke: exact cycle attribution for the cloaked fileio run,
# with the collapsed-stack (flamegraph.pl input) export.
profile: build
	$(DUNE) exec bin/overshadow_cli.exe -- profile fileio --cloaked --out BENCH_fileio.collapsed

# Perf-regression sentinel: replay the E1/E2 suite plus the key VMM
# counters against the committed bench/baselines.json; fails on any
# cycle metric drifting beyond tolerance or any counter changing at all.
# After an intentional perf change: make regress-update, commit the file.
regress: build
	$(DUNE) exec bin/overshadow_cli.exe -- regress --bench-out BENCH_regress.json

regress-update: build
	$(DUNE) exec bin/overshadow_cli.exe -- regress --update-baselines

# Benchmark output checks: every perfbench workload for about a second,
# traced, so cloaked = native checksums, repeat determinism, the
# Trace.Check verdict and span nesting gate CI (perfbench/README.md).
perfbench-smoke: build
	for w in compute syscall_io paging fleet; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1 || exit 1; \
	done

ci: test chaos-smoke recovery soak migrate fleet telemetry adversary trace regress profile perfbench-smoke

clean:
	$(DUNE) clean
