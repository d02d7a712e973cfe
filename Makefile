PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test bench bench-smoke validate-baseline check-bench check-dispatch check-matrix eval-matrix check-obs check-profile check-fuzz check-taint check-serve check-metrics check-perfbench fuzz-corpus rewrite-digests

# Tier-1 gate: full test suite, then a bench smoke run whose report (and
# the committed baseline, if present) must satisfy the v5 schema, the
# only one validate_report accepts.
check: test bench-smoke validate-baseline

test:
	$(PYTHON) -m pytest -x -q

# Full matrix; rewrites the committed baseline at the repo root.
bench:
	$(PYTHON) -m repro.perf.bench --out BENCH_interp.json

# One workload/tool/opt cell, written to a scratch path.
bench-smoke:
	$(PYTHON) -m repro.perf.bench --quick --reps 1 --out /tmp/bench_smoke.json

# Regression gate: rerun the default matrix to a scratch path and compare
# against the committed baseline.  Fails (exit 1) when any cell's excess
# instrumentation cycles grow beyond the threshold (default 10%), or when
# same-host interpreter throughput drops beyond it.  The fresh run uses
# the same best-of-3 timing as `make bench`: a best-of-1 fresh side is
# biased slow against a best-of-3 baseline and flakes the wall-clock leg.
check-bench:
	$(PYTHON) -m repro.perf.bench --out /tmp/bench_fresh.json
	$(PYTHON) -m repro.perf.bench --compare BENCH_interp.json /tmp/bench_fresh.json

# Dispatch lane: the fused-vs-simple differential suites (machine-level
# state identity plus the end-to-end instrumented/profiled lane), lazy
# load against an eagerly built machine, the tier-up policy, the
# reference-model oracle run on both consumers of the semantics table,
# and the table's agreement with the ISA's register effects.  The bench
# regression gate for dispatch throughput is check-bench.
check-dispatch:
	$(PYTHON) -m pytest -q tests/machine/test_superblocks.py \
	    tests/machine/test_lazy_load.py tests/machine/test_tier_policy.py \
	    tests/machine/test_properties.py tests/machine/test_semantics.py \
	    tests/eval/test_dispatch_differential.py

# Parallel conformance/differential matrix lane (pytest -m matrix), plus
# the rewrite byte-identity lane: every tool x workload x O0-O4 rewrite
# against its committed digest.  Deterministically sharded: `make
# check-matrix SHARD=0 SHARDS=2` runs half of each; run every shard to
# cover all of it.  Set WRL_MATRIX_FULL=1 for all 20 workloads instead of
# the quick set in the conformance matrix (the digest lane always covers
# all 20).
SHARD ?= 0
SHARDS ?= 1
check-matrix:
	WRL_EVAL_SHARD=$(SHARD) WRL_EVAL_SHARDS=$(SHARDS) \
	$(PYTHON) -m pytest -q -m matrix tests/eval/test_parallel_matrix.py \
	    tests/atom/test_rewrite_digests.py

# Full matrix through the parallel pipeline; rewrites EVAL_matrix.json.
eval-matrix:
	$(PYTHON) -m repro.eval --jobs 2 --out EVAL_matrix.json

# Observability lane: tracer unit tests plus the overhead-budget
# benchmark (asserts disabled tracing costs <2% on the bench workloads).
check-obs:
	$(PYTHON) -m pytest -q tests/obs
	$(PYTHON) -m repro.obs.overhead --quick --out /tmp/obs_overhead.json

# Guest-profiler lane: an end-to-end profile of prof@O4 — flamegraph
# stacks + annotated disassembly written to PROFILE_DIR (uploaded as a
# CI artifact), failing if >1% of samples are unattributable.  The
# runtime-profiler tests and the overhead budget run in check-obs.
PROFILE_DIR ?= /tmp/wrl-profile
check-profile:
	$(PYTHON) -m repro.obs.runtime --workload fib --tool prof --opt 4 \
	    --interval 997 --out-dir $(PROFILE_DIR)
	$(PYTHON) -m repro.obs.cli profile $(PROFILE_DIR)/profile.json --top 5
	$(PYTHON) -m repro.obs.annotate $(PROFILE_DIR)/module.wof \
	    $(PROFILE_DIR)/profile.json -o $(PROFILE_DIR)/annotated-cli.txt

# Fuzz lane: the deep pytest suite (generator/reducer/matrix/corpus,
# `-m fuzz`), then a fixed-seed wrl-fuzz smoke over fresh programs under
# a hard time budget.  A divergence writes a reduced repro program to
# FUZZ_DIR (uploaded as a CI artifact) and fails the lane, and so does a
# report whose fused column compiled no superblock (the fused-vs-simple
# check would then compare the per-instruction walk with itself).  The
# deep
# lane is tunable without code changes: make check-fuzz FUZZ_SEED=100
# FUZZ_COUNT=50 FUZZ_BUDGET=600.
FUZZ_DIR ?= /tmp/wrl-fuzz
FUZZ_SEED ?= 0
FUZZ_COUNT ?= 8
FUZZ_BUDGET ?= 60
check-fuzz:
	$(PYTHON) -m pytest -q -m fuzz tests/fuzz
	$(PYTHON) -m repro.eval.fuzz_matrix --seed $(FUZZ_SEED) \
	    --count $(FUZZ_COUNT) --time-budget $(FUZZ_BUDGET) \
	    --jobs 2 --out $(FUZZ_DIR)
	$(PYTHON) -c "import json, sys; \
	fused = json.load(open('$(FUZZ_DIR)/fuzz_report.json'))['tiers']['fused']; \
	sys.exit(0 if fused['superblocks'] else \
	         'check-fuzz: the fused column compiled no superblock')"

# Taint lane: shadow-semantics property tests and the end-to-end taint
# tool tests, pristine attribution under the densest instrumentation
# regime, a taint-only differential over the committed corpus
# (time-budgeted; a divergence writes a reduced repro to TAINT_DIR),
# then the taint rows of the bench regression gate against the
# committed baseline.
TAINT_DIR ?= /tmp/wrl-taint
TAINT_BUDGET ?= 240
check-taint:
	$(PYTHON) -m pytest -q tests/tools/test_taint_shadow.py \
	    tests/tools/test_tools.py -k "taint or Taint"
	$(PYTHON) -m pytest -q tests/obs/test_runtime.py -k taint
	$(PYTHON) -m repro.eval.fuzz_matrix --corpus tests/fuzz/corpus \
	    --tools taint --no-rotate-tools --time-budget $(TAINT_BUDGET) \
	    --jobs 2 --out $(TAINT_DIR)
	$(PYTHON) -m repro.perf.bench --tools taint --out /tmp/bench_taint.json
	$(PYTHON) -m repro.perf.bench --compare BENCH_interp.json /tmp/bench_taint.json

# Daemon lane: the serve test suite, then a live differential replay —
# start a real wrl-serve daemon, push a corpus slice through concurrent
# duplicated thin clients, and require (1) byte-identity against the
# cold-process artifacts and (2) a minimum dedup hit rate.  On failure
# the daemon trace + failure report land in SERVE_DIR (uploaded as a CI
# artifact).
SERVE_DIR ?= /tmp/wrl-serve-artifacts
check-serve:
	$(PYTHON) -m pytest -q tests/serve
	$(PYTHON) -m repro.serve.check --limit 10 --dup 3 \
	    --min-dedup-rate 0.34 --artifacts $(SERVE_DIR)

# Telemetry lane: metrics-registry + dashboard unit tests and the
# end-to-end trace/metrics/SLO suite against live daemons (golden
# Prometheus exposition included).  The registry is always on: it is
# the daemon's one record of its events.
check-metrics:
	$(PYTHON) -m pytest -q tests/obs/test_metrics.py \
	    tests/obs/test_top.py tests/serve/test_telemetry.py

# perfbench's self-tests: its generators, report shape and checks, and
# the oracle that checks the program's outputs against
# perfbench/expected_outputs.json.
check-perfbench:
	$(PYTHON) -m pytest -q perfbench/tests

# Regenerate the committed seed corpus (policy in DESIGN.md): only when
# the generator's output changes deliberately, never to paper over a
# divergence.
fuzz-corpus:
	$(PYTHON) -m repro.mlc.fuzz --seed 0 --count 25 \
	    --out-dir tests/fuzz/corpus

# Regenerate the committed rewrite digests (policy as for the corpus):
# only when a rewrite's output changes deliberately, stated in
# CHANGES.md, never to paper over a difference.
rewrite-digests:
	$(PYTHON) -m tests.atom.test_rewrite_digests

validate-baseline:
	$(PYTHON) -c "import json, sys; \
	from repro.perf.bench import validate_report, load_report; \
	validate_report(json.load(open('/tmp/bench_smoke.json'))); \
	base = load_report(); \
	print('baseline ok' if base else 'no committed baseline', \
	      file=sys.stderr)"
