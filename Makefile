# Workspace targets (`just`-style; plain make so it runs everywhere).

CARGO ?= cargo

.PHONY: build test audit fmt-check clippy loc results results-check benchmark benchmark-smoke benchmark-test benchmark-one benchmark-digests benchmark-pair example-fleet clean

build:
	$(CARGO) build --release

# Tier-1 verification (ROADMAP.md).
test:
	$(CARGO) build --release && $(CARGO) test -q

# Workspace invariant linter, for what clippy cannot state: hot-path
# allocation / order-sensitive maps / cost accounting / workspace-lints
# opt-in. Exit 1 on any violation.
audit:
	$(CARGO) run --release -p pi_audit -- --check

fmt-check:
	$(CARGO) fmt --check

# Carries the panic-surface ban (`[workspace.lints.clippy]`) and the
# clock / OS-seeded-hasher ban (`clippy.toml`).
clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Code size: lines under crates/*/src that are neither blank nor a `//`
# comment (doc comments included), each file cut at its first
# `#[cfg(test)]`; per crate, then the workspace total.
loc:
	@find crates -path 'crates/*/src/*' -name '*.rs' | LC_ALL=C sort | xargs awk ' \
		FNR == 1 { split(FILENAME, p, "/"); c = p[2]; cut = 0; if (c != last) { order[++n] = c; last = c } } \
		/^[ \t]*#\[cfg\(test\)\]/ { cut = 1 } \
		cut || /^[ \t]*$$/ || /^[ \t]*\/\// { next } \
		{ lines[c]++; total++ } \
		END { for (i = 1; i <= n; i++) printf "%-12s %6d\n", order[i], lines[order[i]]; \
			printf "%-12s %6d\n", "total", total }'

# Regenerates every artefact under results/ (the paper's figures and
# tables, the five scenario BENCH_*.json, the trace snapshot and
# summary.md) in simulated time — no clock, no host fingerprint, so the
# output is a pure function of the tree (~70 s). Exit 1 if a headline
# claim stops holding. One experiment:
# `cargo run --release -p pi_bench --bin results -- <experiment>`.
results:
	$(CARGO) run --release -p pi_bench --bin results

# The regression gate: regenerate, then fail if git sees any difference
# under results/ (a changed byte, or a new artefact nobody committed).
results-check: results
	@changed=$$(git status --porcelain -- results); \
	if [ -n "$$changed" ]; then \
		echo "results/ no longer regenerates byte for byte:"; echo "$$changed"; \
		git --no-pager diff --stat -- results; exit 1; \
	fi; echo "results/ regenerates byte for byte"

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
# "Reference numbers"); exit 1 on the first mismatch — or if the build
# left `git status -- benchmark BENCHMARK.json` non-empty (cargo rewrites
# the tracked `benchmark/Cargo.lock` when a `[dependencies]` line it
# records disappears from a crate's manifest).
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
	@touched=$$(git status --porcelain -- benchmark BENCHMARK.json); \
	if [ -n "$$touched" ]; then \
		echo "building or running the benchmark changed tracked files under benchmark/:"; \
		echo "$$touched"; exit 1; \
	fi

# The before/after procedure for a claimed gain: two *prebuilt* benchmark
# binaries (one per commit, each built once with its own
# CARGO_TARGET_DIR), N alternated pairs of the command `BENCHMARK.json`
# declares, the first side swapping every pair. Prints each run's
# result-line `wall_s`, then per side the median and quartiles, and the
# pairs the change won (ties count for neither). Run nothing else
# meanwhile.
N ?= 10
SEED ?= 2018

benchmark-pair:
	@test -x "$(PARENT)" -a -x "$(CHANGE)" -a -n "$(W)" || { \
		echo "usage: make benchmark-pair PARENT=<binary> CHANGE=<binary> W=<workload> [N=10] [SEED=2018]"; exit 2; }
	@wall() { "$$1" --workload $(W) --seed $(SEED) --seconds 15 --trace 0 \
		| sed -n '$$s/.*"wall_s": {"value": \([0-9.e-]*\).*/\1/p'; }; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then p=$$(wall "$(PARENT)"); c=$$(wall "$(CHANGE)"); \
		else c=$$(wall "$(CHANGE)"); p=$$(wall "$(PARENT)"); fi; \
		echo "$$i $$p $$c"; i=$$((i + 1)); \
	done | awk ' \
		function q(v, n, f,    h, lo) { h = (n - 1) * f + 1; lo = int(h); \
			return v[lo] + (h - lo) * (v[lo < n ? lo + 1 : lo] - v[lo]) } \
		function side(name, v, n,    i, j, t) { \
			for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j > 0 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t } \
			printf "%-7s median %.4f  q1 %.4f  q3 %.4f\n", name, q(v, n, .5), q(v, n, .25), q(v, n, .75) } \
		NF != 3 { print "pair " $$1 ": a run printed no wall_s"; bad = 1; next } \
		{ printf "pair %2d  parent %.4f  change %.4f\n", $$1, $$2, $$3; \
		  n++; p[n] = $$2; c[n] = $$3; wins += ($$3 < $$2); ties += ($$3 == $$2) } \
		END { if (bad || !n) exit 1; side("parent", p, n); pm = q(p, n, .5); iqr = q(p, n, .75) - q(p, n, .25); \
		  side("change", c, n); cm = q(c, n, .5); \
		  printf "$(W) wall_s: change/parent %.3f, change faster in %d of %d pairs (%d ties), medians %.4f apart, parent IQR %.4f\n", \
			cm / pm, wins, n, ties, pm - cm, iqr }'

example-fleet:
	$(CARGO) run --release --example fleet_blast_radius

clean:
	$(CARGO) clean
	$(CARGO) clean --manifest-path benchmark/Cargo.toml
