# Workspace targets (`just`-style; plain make so it runs everywhere).

CARGO ?= cargo

.PHONY: build test audit fmt-check clippy doc loc results results-check benchmark benchmark-smoke benchmark-test benchmark-one benchmark-digests benchmark-pair benchmark-layers example-fleet clean

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

# Rustdoc gate: every intra-doc link resolves and no public doc links a
# private item.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

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
# declares, the first side swapping every pair. For each metric in M
# (default `wall_s`; any of the result line's, e.g. M="wall_s setup_s
# pkt_rate peak_rss_mb") it prints each pair's two values, per side the
# median and quartiles, and the pairs the change won in the metric's
# `better` direction (read from BENCHMARK.json; ties count for neither).
# Then, per side, how many runs failed a check (`"failed"` > 0 on the
# result line) and which. Run nothing else meanwhile.
N ?= 10
SEED ?= 2018

# `run <side> <binary> <trace>`: one run of the command above, printed as
# one `F <side> <check>` line per failed check (the `FAILED CHECK:` line
# cut at the first `: ` after the check's name; the benchmark's pins are
# named `pin: …`), then `<side> <result line>`.
BENCH_RUN = run() { out=$$("$$2" --workload $(W) --seed $(SEED) --seconds 15 --trace $$3); \
	printf '%s\n' "$$out" | sed -n 's/^  FAILED CHECK: \(pin: \)\{0,1\}\([^:]*\):.*/F '"$$1"' \1\2/p'; \
	printf '%s %s\n' "$$1" "$$(printf '%s\n' "$$out" | tail -n 1)"; }; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then run parent "$(PARENT)" $$trace; run change "$(CHANGE)" $$trace; \
		else run change "$(CHANGE)" $$trace; run parent "$(PARENT)" $$trace; fi; \
		i=$$((i + 1)); \
	done

# The awk half both targets share: `F` lines and the result line's
# `"failed"` count, summed per side and printed by `checks()`.
BENCH_CHECKS = \
	$$1 == "F" { fside = $$2; fc = $$0; sub(/^F [a-z]+ /, "", fc); \
		if (!failures[fside, fc]++) listed[fside, ++listing[fside]] = fc; next } \
	/"value": / && match($$0, /"failed": [0-9]+/) && substr($$0, RSTART + 10) + 0 > 0 { failing[$$1]++ } \
	function checks(s, n,    i, c, out) { out = ""; \
		for (i = 1; i <= listing[s]; i++) { c = listed[s, i]; out = out (i == 1 ? ": " : ", ") c " (" failures[s, c] ")" } \
		printf "%-7s %d of %d runs correct, %d failed a check%s\n", s, n - failing[s], n, failing[s], out }

benchmark-pair:
	@test -x "$(PARENT)" -a -x "$(CHANGE)" -a -n "$(W)" || { \
		echo "usage: make benchmark-pair PARENT=<binary> CHANGE=<binary> W=<workload> [M=\"wall_s ...\"] [N=10] [SEED=2018]"; exit 2; }
	@trace=0; $(BENCH_RUN) | awk -v metrics="$(or $(M),wall_s)" ' \
		function q(v, n, f,    h, lo) { h = (n - 1) * f + 1; lo = int(h); \
			return v[lo] + (h - lo) * (v[lo < n ? lo + 1 : lo] - v[lo]) } \
		function side(name, v, n,    i, j, t) { \
			for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j > 0 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t } \
			printf "%-7s median %.6g  q1 %.6g  q3 %.6g\n", name, q(v, n, .5), q(v, n, .25), q(v, n, .75) } \
		BEGIN { nm = split(metrics, name, " ") } \
		FNR == NR { if (match($$0, /"name": "[^"]*"/)) last = substr($$0, RSTART + 9, RLENGTH - 10); \
			if (match($$0, /"better": "[a-z]*"/)) better[last] = substr($$0, RSTART + 11, RLENGTH - 12); next } \
		$(BENCH_CHECKS) \
		!/"value": / { print "a " $$1 " run printed no result line"; bad = 1; next } \
		{ s = $$1; k = ++runs[s]; \
		  for (j = 1; j <= nm; j++) { key = "\"" name[j] "\": {\"value\": "; at = index($$0, key); \
			if (at) val[s, j, k] = substr($$0, at + length(key)) + 0; \
			else { print "pair " k ": the " s " run printed no " name[j]; bad = 1 } } } \
		END { if (bad || !runs["parent"] || runs["parent"] != runs["change"]) exit 1; n = runs["parent"]; \
		  for (j = 1; j <= nm; j++) { m = name[j]; dir = (m in better) ? better[m] : "lower"; wins = ties = 0; \
			printf "%s (%s is better)\n", m, dir; \
			for (k = 1; k <= n; k++) { p[k] = val["parent", j, k]; c[k] = val["change", j, k]; \
				printf "pair %2d  parent %.6g  change %.6g\n", k, p[k], c[k]; \
				wins += (dir == "higher") ? (c[k] > p[k]) : (c[k] < p[k]); ties += (c[k] == p[k]) } \
			side("parent", p, n); pm = q(p, n, .5); iqr = q(p, n, .75) - q(p, n, .25); \
			side("change", c, n); cm = q(c, n, .5); gap = pm > cm ? pm - cm : cm - pm; \
			printf "$(W) %s: change/parent %s, change better in %d of %d pairs (%d ties), medians %.6g apart, parent IQR %.6g\n", \
				m, pm != 0 ? sprintf("%.3f", cm / pm) : "-", wins, n, ties, gap, iqr } \
		  checks("parent", n); checks("change", n) }' BENCHMARK.json -

# The per-layer half of a before/after row: N alternated pairs of one
# traced (`--trace 1`) run per side, the first side swapping every pair,
# then for each metric in M (default: every metric of the result line)
# its per-side median and range and the change/parent ratio of the
# medians, and per side the runs that failed a check and which (the
# traced run adds `ledger sanity` and `traced digest = untraced`). Same
# prebuilt binaries as `benchmark-pair`; run nothing else meanwhile.
benchmark-layers:
	@test -x "$(PARENT)" -a -x "$(CHANGE)" -a -n "$(W)" || { \
		echo "usage: make benchmark-layers PARENT=<binary> CHANGE=<binary> W=<workload> [M=\"<metric> ...\"] [N=10] [SEED=2018]"; exit 2; }
	@trace=1; $(BENCH_RUN) | awk -v metrics="$(M)" ' \
		function median(s, m, n,    i, j, t, v) { for (i = 1; i <= n; i++) v[i] = val[s, m, i]; \
			for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j > 0 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t } \
			lo[s] = v[1]; hi[s] = v[n]; return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 } \
		$(BENCH_CHECKS) \
		!/"value": / { print "a " $$1 " run printed no result line"; bad = 1; next } \
		{ side = $$1; runs[side]++ } \
		nm == 0 { if (metrics != "") nm = split(metrics, name, " "); \
			else { rest = $$0; while (match(rest, /"[a-z0-9_.]+": [{]"value": /)) { \
				name[++nm] = substr(rest, RSTART + 1, index(substr(rest, RSTART + 1), "\"") - 1); \
				rest = substr(rest, RSTART + RLENGTH) } } } \
		{ for (k = 1; k <= nm; k++) { key = "\"" name[k] "\": {\"value\": "; at = index($$0, key); \
			if (at) val[side, name[k], runs[side]] = substr($$0, at + length(key)) + 0; else missing[name[k]] = 1 } } \
		END { if (bad || !runs["parent"] || runs["parent"] != runs["change"]) exit 1; n = runs["parent"]; \
			printf "$(W), %d traced runs per side: median [min .. max]\n", n; \
			for (k = 1; k <= nm; k++) { m = name[k]; \
				if (m in missing) { printf "%-40s not in the result line\n", m; continue } \
				p = median("parent", m, n); c = median("change", m, n); \
				printf "%-40s parent %11.5g [%.5g .. %.5g]  change %11.5g [%.5g .. %.5g]", m, p, lo["parent"], hi["parent"], c, lo["change"], hi["change"]; \
				if (p != 0) printf "  change/parent %.3f", c / p; printf "\n" } \
			checks("parent", n); checks("change", n) }'

example-fleet:
	$(CARGO) run --release --example fleet_blast_radius

clean:
	$(CARGO) clean
	$(CARGO) clean --manifest-path benchmark/Cargo.toml
