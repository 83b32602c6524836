# Workspace targets (`just`-style; plain make so it runs everywhere).

CARGO ?= cargo

.PHONY: build test audit audit-baseline fmt-check clippy bench bench-fleet bench-hotpath bench-upcall bench-detect bench-policy bench-backends bench-fault bench-check bench-compare bench-summary benchmark benchmark-smoke benchmark-test benchmark-one benchmark-digests trace-forensics example-fleet clean

build:
	$(CARGO) build --release

# Tier-1 verification (ROADMAP.md).
test:
	$(CARGO) build --release && $(CARGO) test -q

# Workspace invariant linter: determinism / hot-path allocation /
# panic-surface ratchet / cost accounting / workspace-lints opt-in.
# Exit 1 on any new violation or a stale audit_baseline.json entry.
audit:
	$(CARGO) run --release -p pi_audit -- --check

# Tighten the ratchet after a burn-down (counts may only decrease).
audit-baseline:
	$(CARGO) run --release -p pi_audit -- --write-baseline

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Dependency-free microbenchmarks of the attack's mechanisms.
bench:
	$(CARGO) bench -p pi_bench

# Fleet scaling sweep (hosts x workers); writes BENCH_fleet.json and
# results/fleet_scaling.csv. Needs >= 4 cores to show the 2x+ worker
# scaling target.
bench-fleet:
	$(CARGO) run --release -p pi_bench --bin fleet_scaling

# Per-packet pipeline throughput (single worker): pps, avg subtable
# probes, EMC hit rate; writes BENCH_hotpath.json. See README
# "Performance" for the before/after methodology.
bench-hotpath:
	$(CARGO) run --release -p pi_bench --bin hotpath

# Handler-saturation sweep: victim pps / upcall drop rate / install
# latency under inline vs bounded vs fair-share slow paths; writes
# BENCH_upcall.json. See README "Slow-path pipeline".
bench-upcall:
	$(CARGO) run --release -p pi_bench --bin upcall_saturation

# Closed-loop defense sweep: time-to-detect, victim recovery and
# benign false positives under none / static / adaptive defenses;
# writes BENCH_detect.json. See README "Online detection & adaptive
# defense".
bench-detect:
	$(CARGO) run --release -p pi_bench --bin detection_roc

# Control-plane churn sweep: benign updates vs the zero-packet
# policy-flap flush storm vs the scoped-invalidation ablation; writes
# BENCH_policy.json. See README "Control-plane churn".
bench-policy:
	$(CARGO) run --release -p pi_bench --bin policy_churn

# Cross-backend immunity matrix: {backend x attack x defense} cells
# with retained-capacity ratios over all four dataplane backends;
# writes BENCH_backends.json. See README "Dataplane backends".
bench-backends:
	$(CARGO) run --release -p pi_bench --bin backend_matrix

# Crash-recovery matrix: {crash} x {policy_flap, upcall_flood} x
# {fire-and-forget, retry+reconcile} — wrong verdicts, recovery time
# and retry cost; writes BENCH_fault.json. See README "Fault injection
# & recovery".
bench-fault:
	$(CARGO) run --release -p pi_bench --bin fault_matrix

# Static regression gate over the checked-in BENCH_*.json headline
# cells (no benches are re-run), including the tracing-overhead gate
# on the hotpath trace_off/trace_on rows.
bench-check:
	$(CARGO) run --release -p pi_bench --bin bench_check

# Fresh-vs-committed artefact diff with per-cell tolerances: re-runs
# the deterministic policy-churn bench into a scratch dir and compares
# every cell against the committed artefact. Exit 1 on regression.
bench-compare:
	mkdir -p /tmp/pi_fresh
	PI_BENCH_POLICY_OUT=/tmp/pi_fresh/BENCH_policy.json \
		$(CARGO) run --release -p pi_bench --bin policy_churn
	$(CARGO) run --release -p pi_bench --bin bench_check -- --against /tmp/pi_fresh

# Markdown results index (results/summary.md): the normalized hot-path
# throughput trajectory plus every artefact's headline cell.
bench-summary:
	$(CARGO) run --release -p pi_bench --bin bench_summary

# The repo benchmark (`benchmark/README.md`, `BENCHMARK.json`): its own
# package outside the workspace. `benchmark` is the full run (five
# workloads, 4 interleaved rounds + a traced child each; ~2.5 min),
# `benchmark-smoke` every workload once and short (never a baseline),
# `benchmark-test` the harness's own unit tests, and
# `benchmark-one W=<workload>` exactly the command `BENCHMARK.json`
# declares, for one workload — one line per side of a before/after pair.
# `benchmark-digests` answers "are the outputs still correct" locally:
# one short seed-2018 run per workload, the report digest on its
# `detail:` line compared with the reference (`benchmark/README.md`,
# "Reference numbers"); exit 1 on the first mismatch.
BENCHMARK = --release --offline --manifest-path benchmark/Cargo.toml

benchmark:
	$(CARGO) run $(BENCHMARK)

benchmark-smoke:
	$(CARGO) run $(BENCHMARK) -- --smoke

benchmark-test:
	$(CARGO) test $(BENCHMARK)

benchmark-one:
	@test -n "$(W)" || { echo "usage: make benchmark-one W=<workload>"; exit 2; }
	$(CARGO) run --quiet $(BENCHMARK) -- --workload $(W) --seed 2018 --seconds 15 --trace 0

DIGESTS = colo_benign:87c598219ce1633c colo_attack:33fafa75c7cd4a6f \
	colo_walk:d93f3c6854d88f0f flap_rebuild:6b16f1c32b77bd4a sparse_idle:66ef3f2328fb7d1a

benchmark-digests:
	$(CARGO) build --quiet $(BENCHMARK)
	@for pair in $(DIGESTS); do \
		w=$${pair%%:*}; want=$${pair##*:}; \
		got=$$($(CARGO) run --quiet $(BENCHMARK) -- --workload $$w --seed 2018 --seconds 1 --trace 0 \
			| sed -n 's/^detail:.*"digest": "\([0-9a-f]*\)".*/\1/p'); \
		if [ "$$got" = "$$want" ]; then echo "$$w $$got ok"; \
		else echo "$$w: digest '$$got', expected $$want"; exit 1; fi; \
	done

# Traced policy-flap forensics: proves the causal chain (policy update
# -> cache flush -> attributed rebuild storm -> PolicyChurn detection)
# and writes results/trace_policy_flap.{json,prom}.
trace-forensics:
	$(CARGO) run --release -p pi_bench --bin trace_forensics

example-fleet:
	$(CARGO) run --release --example fleet_blast_radius

clean:
	$(CARGO) clean
	$(CARGO) clean --manifest-path benchmark/Cargo.toml
