# Developer entry points.  `make check` is the CI gate: full build, the
# reflex-lint static-analysis pass (determinism, domain-safety,
# guard-discipline, hot-path allocations, interface hygiene — zero
# findings required), the whole alcotest suite, the bench smoke (parallel-runner sanity +
# telemetry, faults and monitor on/off overhead) with its numbers
# recorded in BENCH_SMOKE.json for trend tracking, the chaos smoke
# (scripted fault plan + determinism verification), the monitor
# smoke (alerting acceptance + bit-reproducible alert timeline) and the
# obs smoke (alert-triggered flight-recorder dump, byte-identical
# across reruns/parallelism/backends), the rack smoke (two-layer
# scheduler bakeoff + migration, byte-identical across reruns,
# parallelism and backends) and the rack-obs smoke (rack-scale
# distributed tracing: hop-delta tiling, dominant-hop attribution on a
# congested link, burn alert + forensic dump, stitched Follows_from
# migrations) and the host-cost benchmark self-tests (recorded digests).

.PHONY: all build test lint bench-smoke chaos-smoke monitor-smoke obs-smoke rack-smoke rack-obs-smoke host-selftest check trace chaos monitor obs rack bench clean

all: build

build:
	dune build

test: build
	dune runtest

# Determinism / domain-safety / hot-path-allocation gate: reflex-lint
# scans lib/, bin/ and bench/ against lint.manifest, runs the
# interprocedural passes over the cross-module call graph, and fails on
# any finding.  The JSON report and the call graph are kept for the CI
# artifacts.
lint: build
	dune exec bin/reflex_lint.exe -- --root . --json _build/lint.json --callgraph-out _build/callgraph.json

bench-smoke: build
	dune exec test/bench_smoke.exe -- --json BENCH_SMOKE.json

# Compressed chaos scenario with byte-identity verification (same-seed
# rerun and serial vs two-domain parallel) — fails loudly on divergence.
chaos-smoke: build
	dune exec bin/reflex_sim.exe -- chaos > _build/chaos_smoke.out
	@grep -q "SLO HELD" _build/chaos_smoke.out
	@grep -q "same-seed rerun byte-identical: true" _build/chaos_smoke.out
	@grep -q "serial vs --jobs 2 byte-identical: true" _build/chaos_smoke.out
	@echo "chaos smoke OK: SLO held, retries bounded, output byte-identical"

# Monitoring acceptance: alerts fire inside injected-fault windows and
# name their fault, clean runs are silent, a disabled monitor is
# bit-identical to no monitor, and the alert timeline is byte-identical
# serial vs parallel.
monitor-smoke: build
	dune exec bin/reflex_sim.exe -- monitor > _build/monitor_smoke.out
	@grep -q "MONITOR OK" _build/monitor_smoke.out
	@grep -q "same-seed rerun byte-identical: true" _build/monitor_smoke.out
	@grep -q "serial vs --jobs 2 byte-identical: true" _build/monitor_smoke.out
	@echo "monitor smoke OK: alerts in fault windows, clean runs silent, timeline byte-identical"

# Observability acceptance: an alert-triggered flight dump is captured,
# names its firing alert and active fault window, and is byte-identical
# across same-seed reruns, serial vs --jobs 2, and heap vs wheel.
obs-smoke: build
	dune exec bin/reflex_sim.exe -- obs > _build/obs_smoke.out
	@grep -q "OBS OK" _build/obs_smoke.out
	@grep -q "heap vs wheel dump byte-identical: true" _build/obs_smoke.out
	@grep -q "dump names its trigger alert                 PASS" _build/obs_smoke.out
	@echo "obs smoke OK: forensic dump names its alert, bytes identical across backends"

# Rack-scale scheduling acceptance: the policy bakeoff lands with po2c
# beating random and the oracle on top, skew-driven migration fires and
# helps, and the whole render is byte-identical across same-seed reruns,
# serial vs --jobs 2, and heap vs wheel event backends.
rack-smoke: build
	dune exec bin/reflex_sim.exe -- rack > _build/rack_smoke.out
	@grep -q "RACK OK" _build/rack_smoke.out
	@grep -q "same-seed rerun byte-identical: true" _build/rack_smoke.out
	@grep -q "serial vs --jobs 2 byte-identical: true" _build/rack_smoke.out
	@grep -q "heap vs wheel backends byte-identical: true" _build/rack_smoke.out
	@echo "rack smoke OK: bakeoff checks pass, migration live, output byte-identical"

# Rack tracing acceptance: every traced request's hop deltas tile its
# e2e latency exactly, the congested-link leg's SLO violations blame the
# ingress hop, the rack burn alert fires and captures a forensic dump,
# migrations appear as Follows_from parents in the stitched span trees,
# and the whole render (span trees + rollup md5s included) is
# byte-identical across reruns, parallelism and backends.  Shares the
# rack scenario binary so the tracer rides the same bakeoff worlds.
rack-obs-smoke: build
	dune exec bin/reflex_sim.exe -- rack > _build/rack_obs_smoke.out
	@grep -q "RACK OK" _build/rack_obs_smoke.out
	@grep -q "hop deltas tile e2e in every traced leg      PASS" _build/rack_obs_smoke.out
	@grep -q "congested link's dominant hop is ingress     PASS" _build/rack_obs_smoke.out
	@grep -q "rack burn alert fired on the congested leg   PASS" _build/rack_obs_smoke.out
	@grep -q "migrations stitched into the trace logs      PASS" _build/rack_obs_smoke.out
	@grep -q "follows_from migrate" _build/rack_obs_smoke.out
	@grep -q "heap vs wheel backends byte-identical: true" _build/rack_obs_smoke.out
	@echo "rack-obs smoke OK: tiling exact, ingress blamed, alert fired, migrations stitched"

# Host-cost benchmark self-tests: every workload's shape predicates, its
# same-seed rerun digest and the digest recorded in bench/host/digests.txt,
# heap vs wheel and traced vs untraced equality (short runs).  The
# recorded digests are the oracle that a refactor left the simulated
# results unchanged.
host-selftest: build
	python3 bench/host/run.py --selftest

check: build
	$(MAKE) lint
	dune runtest
	dune exec test/bench_smoke.exe -- --json BENCH_SMOKE.json
	$(MAKE) chaos-smoke
	$(MAKE) monitor-smoke
	$(MAKE) obs-smoke
	$(MAKE) rack-smoke
	$(MAKE) rack-obs-smoke
	$(MAKE) host-selftest

# Canonical telemetry scenario: per-request latency breakdowns, SLO
# audit, scheduler decision log, Chrome trace JSON.
trace: build
	dune exec bin/reflex_sim.exe -- trace

# Full chaos scenario with determinism debrief and SLO audit.
chaos: build
	dune exec bin/reflex_sim.exe -- chaos

# Full monitoring scenario: alert debrief, budgets, remediation log.
monitor: build
	dune exec bin/reflex_sim.exe -- monitor

# Observability scenario: flight-recorder dumps, retry span trees,
# dump-determinism debrief, cost profile.
obs: build
	dune exec bin/reflex_sim.exe -- obs

# Rack-scale scenario: policy bakeoff, migration leg, determinism debrief.
rack: build
	dune exec bin/reflex_sim.exe -- rack

# Full figure reproduction + microbenchmarks (quick mode).
bench: build
	dune exec bench/main.exe -- --json BENCH_$$(date +%F).json

clean:
	dune clean
