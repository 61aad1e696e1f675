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

# The seeded sweeps that write a committed BENCH file, one rule each:
# target, CLI subcommand, BENCH_<name>.json. Every sweep runs its seeds'
# cells through the one scenario runner (escaped exception, canary leak,
# trace verdict, replay determinism) and exits non-zero on any failure.
#   recovery   power cuts at every journal/device write site + replay
#   soak       supervised restart vs unsupervised under lethal plans
#   migrate    live migration over a hostile channel + its crash matrix
#   fleet      failover and load shedding under hostile open-loop load
#   adversary  every workload under the malicious-kernel personality
define sweep
$(1): build
	$$(DUNE) exec bin/overshadow_cli.exe -- $(2) --seeds 20 --bench-out BENCH_$(3).json
endef
$(eval $(call sweep,recovery,crash-matrix,recovery))
$(eval $(call sweep,soak,soak,availability))
$(eval $(call sweep,migrate,migrate,migration))
$(eval $(call sweep,fleet,fleet,fleet))
$(eval $(call sweep,adversary,adversary,adversary))

# Fleet telemetry proof: the same hostile fleet scenario with the
# per-host registries disabled and enabled must charge identical model
# cycles (trace ids ride the migration wire unconditionally), and the
# enabled run must stitch every committed failover into one cross-host
# causal trace and page the burn-rate monitor on host death while a
# fault-free replay stays silent; emits BENCH_telemetry.json.
telemetry: build
	$(DUNE) exec bin/overshadow_cli.exe -- telemetry --bench-out BENCH_telemetry.json

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
