# Developer entry points.  `make check` is what CI runs.

DUNE ?= dune

.PHONY: all build release test bench bench-smoke svc-smoke net-smoke \
	trace-smoke telemetry-smoke mc-stress resume-smoke decompose-smoke \
	perfbench-smoke perf-regress perf-baseline check doc clean

all: build

build:
	$(DUNE) build @all

release:
	$(DUNE) build --release @all

test:
	$(DUNE) runtest

bench:
	$(DUNE) exec bench/main.exe

# B4 at tiny sizes (asserts nonzero exploration counts, exits nonzero
# if a Budget_exceeded leaks out of any checker) plus the B3/B6
# model-checking count gates: exact node/state counts for the
# por x dedup grid at the 2x2 size — any drift fails the build.
bench-smoke:
	$(DUNE) exec bench/main.exe -- --smoke

# Differential stress for the parallel search: seeded random bounded
# state spaces, the search at 1/2/4 domains against a naive sequential
# reference BFS written out in the test, repeated 10x — verdict lists
# and exploration counts must be bit-identical (including the merge
# path POR depends on).  Exits nonzero on the first divergence with
# the reproducing seed in the message.
mc-stress: build
	$(DUNE) exec --no-build test/test_mc_stress.exe -- --repeat 10 --domains 4
	$(DUNE) exec --no-build test/test_mc_stress.exe -- --repeat 3 --domains 1,2,4

# The repository benchmark (perfbench/, BENCHMARK.json) at tiny
# sizes: every workload, traced and untraced, with every answer gate
# (exact mc counts and spill store shape, svc verdicts equal to
# in-process checks).  Builds its own release binaries into
# .bench_build; about 15 s once that build is warm.
perfbench-smoke:
	python3 perfbench/run.py --self-test

# Kill-and-resume gate for the external-memory spill tier: a
# spill+checkpoint run is SIGKILLed mid-level and resumed to the
# byte-identical verdict and counts; torn MANIFEST.*.tmp files lose
# to the committed manifest; a corrupted manifest, visited segment,
# or frontier segment makes --resume fail loudly with exit 2 instead
# of silently rechecking from scratch.
resume-smoke: build
	@sh test/resume_smoke.sh

# Regenerates the B6 (por x dedup exploration grid), B5 (service
# throughput), B8 (socket loopback latency-vs-rate sweep), B9
# (search scaling at 1/2/4 domains), and B10 (external-memory spill
# tier) series and diffs them against the committed baselines in
# bench/baselines/ (BENCH_b6.json, BENCH_svc.json, BENCH_b8.json,
# BENCH_b9.json, BENCH_b10.json): counts must match exactly; measured
# fields (walls, latencies, rates) must stay within ELIN_PERF_TOL
# (default 4x — generous because CI wall clocks are noisy; count
# drift is the precise signal).  Rate-like fields are gated
# higher-is-better, everything else lower-is-better.  B9 additionally
# self-gates bit-identical counts across its domain counts.  B10
# self-gates counts across ram/spill rows and the deterministic spill
# shape (segments, disk bytes, spilled records).  B11 self-gates min_t
# equality between the monolithic and decomposed checkers on every
# cell and requires the decomposition to explore >= 10x fewer nodes on
# the multi-object family; its node counts are exact under the
# baseline diff.
perf-regress:
	$(DUNE) exec bench/main.exe -- --regress

# The B6 2x3 d22 workload with tracing on, given the trace file to
# write: trace-smoke writes it under _build, perf-baseline re-records
# the committed example trace.
TRACE_B6 = elin mc -i fai/board --procs 2 --per-proc 3 --depth 22 \
	--domains 2 --trace

# Rewrites the committed baselines and the committed example trace
# (bench/baselines/trace_b6_2x3_d22.json) from a fresh run (use after
# an intentional engine change, then commit the files).
perf-baseline:
	$(DUNE) exec bench/main.exe -- --regress-update
	$(DUNE) exec -- $(TRACE_B6) bench/baselines/trace_b6_2x3_d22.json \
	  > /dev/null

# Round-trips the committed 50-job corpus through the checking service
# on 2 worker domains: the verdict stream must be byte-identical to
# the golden file, and the exit code must be 3 (the corpus contains
# budget-exhausted jobs; Exhausted outranks Violation outranks Ok).
svc-smoke: build
	@mkdir -p _build/svc-smoke
	@$(DUNE) exec --no-build -- elin batch --domains 2 \
	  test/support/corpus_50.jobs > _build/svc-smoke/corpus_50.verdicts; \
	status=$$?; \
	if [ $$status -ne 3 ]; then \
	  echo "svc-smoke: expected exit code 3, got $$status"; exit 1; \
	fi
	@diff -u test/support/corpus_50.verdicts.golden \
	  _build/svc-smoke/corpus_50.verdicts \
	  || { echo "svc-smoke: verdicts differ from the golden file"; exit 1; }
	@echo "svc-smoke OK"

# Decomposition gate: the committed mixed-object corpus through `elin
# batch` with and without --decompose.  Each stream must be
# byte-identical to its golden (node counts are deterministic on both
# paths), and after stripping the by-design node/memo count fields the
# two streams must be identical to each other — statuses, min_t,
# violations, and the bad-job error all survive decomposition exactly.
# Exit code must be 2 both ways (the corpus contains one bad job).
decompose-smoke: build
	@mkdir -p _build/decompose-smoke
	@$(DUNE) exec --no-build -- elin batch --domains 2 \
	  test/support/corpus_decomp.jobs \
	  > _build/decompose-smoke/mono.verdicts; \
	status=$$?; \
	if [ $$status -ne 2 ]; then \
	  echo "decompose-smoke: batch expected exit code 2, got $$status"; \
	  exit 1; \
	fi
	@$(DUNE) exec --no-build -- elin batch --decompose --domains 2 \
	  test/support/corpus_decomp.jobs \
	  > _build/decompose-smoke/split.verdicts; \
	status=$$?; \
	if [ $$status -ne 2 ]; then \
	  echo "decompose-smoke: batch --decompose expected exit code 2, got \
	  $$status"; exit 1; \
	fi
	@diff -u test/support/corpus_decomp.verdicts.golden \
	  _build/decompose-smoke/mono.verdicts \
	  || { echo "decompose-smoke: verdicts differ from the golden"; exit 1; }
	@diff -u test/support/corpus_decomp.verdicts.decomposed.golden \
	  _build/decompose-smoke/split.verdicts \
	  || { echo "decompose-smoke: --decompose verdicts differ from the \
	  golden"; exit 1; }
	@sed 's/,"nodes":[0-9]*,"memo_hits":[0-9]*//' \
	  _build/decompose-smoke/mono.verdicts \
	  > _build/decompose-smoke/mono.stripped
	@sed 's/,"nodes":[0-9]*,"memo_hits":[0-9]*//' \
	  _build/decompose-smoke/split.verdicts \
	  > _build/decompose-smoke/split.stripped
	@diff -u _build/decompose-smoke/mono.stripped \
	  _build/decompose-smoke/split.stripped \
	  || { echo "decompose-smoke: decomposed verdicts split from the \
	  pool's"; exit 1; }
	@echo "decompose-smoke OK"

# End-to-end socket path: starts `elin serve --listen` on a unix
# socket, round-trips the committed 50-job corpus through `elin batch
# --connect` (exit code must be 3 and the verdict stream byte-identical
# to the svc golden — the wire adds nothing and loses nothing), then
# SIGTERMs the server and asserts a clean drain: exit 0, a final
# metrics snapshot on stderr counting all 50 jobs submitted and
# completed, and the socket file unlinked.
net-smoke: build
	@mkdir -p _build/net-smoke
	@rm -f _build/net-smoke/sock
	@./_build/default/bin/elin.exe serve --listen unix:_build/net-smoke/sock \
	  --domains 2 2> _build/net-smoke/serve.err & \
	srv=$$!; \
	for i in $$(seq 1 50); do \
	  [ -S _build/net-smoke/sock ] && break; sleep 0.1; \
	done; \
	if [ ! -S _build/net-smoke/sock ]; then \
	  echo "net-smoke: server never bound its socket"; \
	  kill $$srv 2>/dev/null; exit 1; \
	fi; \
	./_build/default/bin/elin.exe batch --connect unix:_build/net-smoke/sock \
	  test/support/corpus_50.jobs > _build/net-smoke/corpus_50.verdicts; \
	status=$$?; \
	if [ $$status -ne 3 ]; then \
	  echo "net-smoke: batch --connect expected exit code 3, got $$status"; \
	  kill $$srv 2>/dev/null; exit 1; \
	fi; \
	diff -u test/support/corpus_50.verdicts.golden \
	  _build/net-smoke/corpus_50.verdicts \
	  || { echo "net-smoke: verdicts differ from the golden file"; \
	       kill $$srv 2>/dev/null; exit 1; }; \
	kill -TERM $$srv; \
	wait $$srv; \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "net-smoke: server exit code $$status after SIGTERM (want 0)"; \
	  exit 1; \
	fi; \
	grep -q '"final":true' _build/net-smoke/serve.err \
	  || { echo "net-smoke: no final metrics snapshot on server stderr"; \
	       exit 1; }; \
	for count in '"submitted":50' '"completed":50'; do \
	  grep '"final":true' _build/net-smoke/serve.err | grep -q "$$count" \
	    || { echo "net-smoke: final snapshot lacks $$count"; exit 1; }; \
	done; \
	if [ -e _build/net-smoke/sock ]; then \
	  echo "net-smoke: socket file not unlinked on drain"; exit 1; \
	fi
	@echo "net-smoke OK"

# Bounded runs with tracing enabled, every artefact linted with
# `elin trace lint`: a fresh trace of the B6 2x3 d22 workload (Chrome
# JSON, loads in Perfetto / chrome://tracing with per-domain expansion
# spans and POR-pruned instants) beside the committed example
# (bench/baselines/trace_b6_2x3_d22.json, which only perf-baseline
# rewrites), a canonical-JSONL mc trace, and a batch metrics snapshot
# over the 50-job corpus.
trace-smoke: build
	@mkdir -p _build/trace-smoke
	@$(DUNE) exec --no-build -- $(TRACE_B6) \
	  _build/trace-smoke/trace_b6_2x3_d22.json > _build/trace-smoke/mc.out
	@$(DUNE) exec --no-build -- elin trace lint \
	  _build/trace-smoke/trace_b6_2x3_d22.json
	@$(DUNE) exec --no-build -- elin trace lint \
	  bench/baselines/trace_b6_2x3_d22.json
	@$(DUNE) exec --no-build -- elin mc -i fai/board --depth 12 \
	  --trace _build/trace-smoke/mc.jsonl > /dev/null
	@$(DUNE) exec --no-build -- elin trace lint _build/trace-smoke/mc.jsonl
	@$(DUNE) exec --no-build -- elin batch --domains 2 \
	  --metrics _build/trace-smoke/batch.metrics \
	  test/support/corpus_50.jobs > /dev/null; \
	status=$$?; \
	if [ $$status -ne 3 ]; then \
	  echo "trace-smoke: batch expected exit code 3, got $$status"; exit 1; \
	fi
	@$(DUNE) exec --no-build -- elin trace lint _build/trace-smoke/batch.metrics
	@$(DUNE) exec --no-build -- elin trace merge _build/trace-smoke/mc.jsonl \
	  > _build/trace-smoke/mc.merged.json
	@$(DUNE) exec --no-build -- elin trace lint _build/trace-smoke/mc.merged.json
	@echo "trace-smoke OK"

# Live telemetry endpoint end-to-end, probed with elin itself (there
# is no curl in the CI image): `elin serve --telemetry` on an
# ephemeral port must announce the bound port, serve /metrics as
# parseable OpenMetrics and /healthz as 200 "serving"; then a
# deliberately slow job (committed one-job corpus: a depth-10
# unsatisfiable register history under a 5 s timeout) is parked on the
# only worker and the server SIGTERMed mid-job — during the drain
# /healthz must flip to 503 "draining", and the drain must still end
# in exit 0 with the slow job answered.
telemetry-smoke: build
	@mkdir -p _build/telemetry-smoke
	@rm -f _build/telemetry-smoke/sock
	@./_build/default/bin/elin.exe serve \
	  --listen unix:_build/telemetry-smoke/sock \
	  --telemetry tcp:127.0.0.1:0 --test-specs --domains 1 \
	  > _build/telemetry-smoke/serve.out \
	  2> _build/telemetry-smoke/serve.err & \
	srv=$$!; \
	tport=""; \
	for i in $$(seq 1 50); do \
	  tport=$$(sed -n 's/^telemetry on tcp:127.0.0.1:\([0-9]*\).*/\1/p' \
	    _build/telemetry-smoke/serve.out); \
	  [ -n "$$tport" ] && [ -S _build/telemetry-smoke/sock ] && break; \
	  sleep 0.1; \
	done; \
	if [ -z "$$tport" ]; then \
	  echo "telemetry-smoke: server never announced its telemetry port"; \
	  kill $$srv 2>/dev/null; exit 1; \
	fi; \
	./_build/default/bin/elin.exe probe tcp:127.0.0.1:$$tport /metrics \
	  --openmetrics > /dev/null \
	  || { echo "telemetry-smoke: /metrics probe failed"; \
	       kill $$srv 2>/dev/null; exit 1; }; \
	./_build/default/bin/elin.exe probe tcp:127.0.0.1:$$tport /healthz \
	  | grep -q '"status":"serving"' \
	  || { echo "telemetry-smoke: /healthz not serving"; \
	       kill $$srv 2>/dev/null; exit 1; }; \
	./_build/default/bin/elin.exe batch \
	  --connect unix:_build/telemetry-smoke/sock \
	  test/support/telemetry_slow.jobs \
	  > _build/telemetry-smoke/slow.verdicts & \
	bat=$$!; \
	sleep 1; \
	kill -TERM $$srv; \
	sleep 0.3; \
	./_build/default/bin/elin.exe probe tcp:127.0.0.1:$$tport /healthz \
	  --expect 503 | grep -q '"status":"draining"' \
	  || { echo "telemetry-smoke: /healthz did not flip to draining"; \
	       exit 1; }; \
	wait $$srv; status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "telemetry-smoke: server exit $$status after SIGTERM (want 0)"; \
	  exit 1; \
	fi; \
	wait $$bat; \
	grep -q '"id":"slow-drain"' _build/telemetry-smoke/slow.verdicts \
	  || { echo "telemetry-smoke: slow job never answered"; exit 1; }
	@echo "telemetry-smoke OK"

doc:
	$(DUNE) build @doc

# CI gate: full build, full test suite, and a guard against anyone
# re-adding build artefacts to the index (PR 1 untracked _build/).
check: build test bench-smoke svc-smoke net-smoke trace-smoke \
		telemetry-smoke mc-stress resume-smoke decompose-smoke \
		perfbench-smoke
	@if git ls-files | grep -E '^_build/|\.install$$|^\.merlin$$' >/dev/null; then \
	  echo "error: build artefacts are tracked in git (see .gitignore)"; \
	  git ls-files | grep -E '^_build/|\.install$$|^\.merlin$$' | head; \
	  exit 1; \
	fi
	@echo "check: OK"

clean:
	$(DUNE) clean
