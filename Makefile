PYTHON ?= python
PYTHONPATH_PREFIX = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# full exploration knobs (see docs/FAULTS.md)
SEEDS ?= 100
START_SEED ?= 0
FAULTS_OUT ?= faults-report.json

# recovery-profile exploration knobs (see docs/RECOVERY.md)
RECOVERY_SEEDS ?= 25
RECOVERY_OUT ?= faults-recovery.json

# smartbft-profile exploration knobs (see docs/SMARTBFT.md)
SMARTBFT_SEEDS ?= 25
SMARTBFT_OUT ?= faults-smartbft.json

# overload-profile exploration knobs (see docs/WORKLOADS.md)
OVERLOAD_SEEDS ?= 25
OVERLOAD_OUT ?= faults-overload.json

# benchmark harness knobs (see docs/BENCHMARKS.md)
BASELINE ?= benchmarks/baselines/BENCH_smoke.json
CANDIDATE ?= BENCH_smoke.json
TOLERANCE ?= 0.05
KERNEL_BASELINE ?= benchmarks/baselines/BENCH_kernel.json

# experiment report / sweep knobs (see docs/BENCHMARKS.md)
REPORT_INPUTS ?= $(BASELINE) $(CANDIDATE)
REPORT_NAMES ?= baseline,candidate
REPORT_OUT ?= bench-report.md
REPORT_JSON ?= bench-report.json
SPEC ?= benchmarks/specs/bakeoff.toml

# protocol-aware analysis knobs (see docs/ANALYSIS.md)
ANALYZE_OUT ?= analysis-report.json
DETSAN_OUT ?= detsan-report.json
FLOW_OUT ?= flow-report.json
FLOW_GRAPH ?= flow-graph.json
RACESAN_OUT ?= racesan-report.json
RACESAN_K ?= 8

.PHONY: test perfbench-test examples lint analyze flow detsan racesan ci faults-smoke faults-explore faults-recovery faults-smartbft faults-overload bench-smoke bench-check bench-baseline bench-full bench-kernel bench-kernel-baseline bench-report bench-sweep

## tier-1: the whole test suite (includes the 25-seed explorer run)
test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

## the repository benchmark's own tests (perfbench/tests sits outside
## tier-1's testpaths; about 40 s) -- catches renamed entry points the
## traced benchmark wraps
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

## run every script in examples/ end to end (seconds each); the first
## one that exits non-zero fails the target
examples:
	@set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHONPATH_PREFIX) $(PYTHON) $$example; \
	done

## static checks: real ruff when installed, AST fallback otherwise
## (config in pyproject.toml; see tools/lint.py)
lint:
	$(PYTHON) tools/lint.py

## protocol-aware static analysis: determinism (DET) and protocol
## invariant (PROTO) rules over src/repro (see docs/ANALYSIS.md)
analyze:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis check \
		--json $(ANALYZE_OUT)

## MsgFlow: interprocedural message-flow/taint analysis (FLOW rules)
## over the protocol packages; also emits the flow graph artifact
flow:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis flow \
		--json $(FLOW_OUT) --graph $(FLOW_GRAPH)

## runtime determinism sanitizer: double-run the seeded smoke scenario
## under different PYTHONHASHSEEDs and diff trace/span/metric views
detsan:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis detsan \
		--json $(DETSAN_OUT)

## schedule-race sanitizer: re-run smoke + recovery under RACESAN_K
## tie-break permutations and diff semantic digests (RACESAN001)
racesan:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis racesan \
		--permutations $(RACESAN_K) --json $(RACESAN_OUT)

## everything CI's per-commit job runs, in order
ci: lint analyze flow test perfbench-test examples faults-smoke faults-recovery faults-smartbft faults-overload bench-smoke bench-check bench-full bench-kernel bench-report

## quick confidence check: 5 explorer seeds (runs in seconds)
faults-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.faults --seeds 5 \
		--out $(FAULTS_OUT)

## crash-recovery exploration: amnesiac restarts + storage faults
## against durable-WAL replicas (make faults-recovery RECOVERY_SEEDS=200)
faults-recovery:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.faults \
		--seeds $(RECOVERY_SEEDS) --profile recovery \
		--out $(RECOVERY_OUT)

## SmartBFT-backend exploration: leader censorship + message/crash
## faults against repro.smart2 (make faults-smartbft SMARTBFT_SEEDS=200)
faults-smartbft:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.faults \
		--seeds $(SMARTBFT_SEEDS) --profile smartbft \
		--out $(SMARTBFT_OUT)

## adversarial-overload exploration: client floods against the
## admission-controlled service, judged by the no-silent-drop
## backpressure invariant (make faults-overload OVERLOAD_SEEDS=200)
faults-overload:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.faults \
		--seeds $(OVERLOAD_SEEDS) --profile overload \
		--out $(OVERLOAD_OUT)

## opt-in deep exploration: make faults-explore SEEDS=500
faults-explore:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.faults \
		--seeds $(SEEDS) --start-seed $(START_SEED) --shrink \
		--out $(FAULTS_OUT)

## quick benchmark pass over every registered benchmark's smoke matrix
## (runs in seconds, writes BENCH_smoke.json)
bench-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run --smoke \
		--name smoke --out $(CANDIDATE)

## regression gate: compare a candidate run against the stored baseline
## usage: make bench-check [BASELINE=...] [CANDIDATE=...] [TOLERANCE=0.05]
bench-check:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench compare \
		$(BASELINE) $(CANDIDATE) --tolerance $(TOLERANCE)

## refresh the committed smoke baseline after an intentional perf change
bench-baseline:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run --smoke \
		--name smoke --out $(BASELINE)

## kernel fast-path speed gate: run the kernel_speed benchmark (full
## matrix, seconds) and compare against its committed baseline.  The
## wall-clock metrics carry a wide declared tolerance (CI machines are
## noisy); events_processed is bit-deterministic and gates exactly, so
## any change to the event stream fails here even if timing looks fine.
bench-kernel:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run \
		--only kernel_speed --name kernel --out BENCH_kernel.json
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench compare \
		$(KERNEL_BASELINE) BENCH_kernel.json

## refresh the committed kernel-speed baseline after an intentional
## kernel change (expect the wall-clock numbers to move; check the
## events_processed rows stayed identical unless semantics changed)
bench-kernel-baseline:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run \
		--only kernel_speed --name kernel --out $(KERNEL_BASELINE)

## full paper-figure matrices (about a minute and a half); writes
## BENCH_full.json, then evaluates every benchmark's declared
## paper-shape checks and fails if one does not hold
bench-full:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run \
		--name full --out BENCH_full.json

## N-way experiment report: statistical ranking over result files
## (pairwise Mann-Whitney U + A12, rank-by-median, Nemenyi CD)
## usage: make bench-report [REPORT_INPUTS="a.json b.json"] [REPORT_NAMES=a,b]
bench-report:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench report \
		$(REPORT_INPUTS) --names $(REPORT_NAMES) \
		--out $(REPORT_OUT) --json $(REPORT_JSON)

## declarative sweep: expand + run a TOML experiment spec
## usage: make bench-sweep [SPEC=benchmarks/specs/bakeoff.toml] [SMOKE=1]
bench-sweep:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run \
		--spec $(SPEC)$(if $(SMOKE), --smoke,)
