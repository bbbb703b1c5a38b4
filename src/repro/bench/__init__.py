"""Benchmark harness: one entry point per table/figure of the paper.

- :mod:`repro.bench.model` -- the analytic capacity model (Equation 1
  generalized to every resource bound) with the calibration constants
  for the paper's Dell R410 / Gigabit testbed;
- :mod:`repro.bench.topology` -- LAN and AWS WAN latency models;
- :mod:`repro.bench.workload` -- envelope load generators;
- :mod:`repro.bench.figures` -- what one matrix point of each
  experiment measures (Figure 6 signing, Figure 7 DES, Figures 8/9 geo
  latency, the conclusion table and our ablations);
- :mod:`repro.bench.harness` -- the declarative benchmark registry,
  runner, declared checks, and versioned JSON result schema
  (``BENCH_<name>.json``);
- :mod:`repro.bench.suite` -- the registered benchmarks and their
  paper-shape checks (importing it populates the registry);
- :mod:`repro.bench.compare` -- statistical baseline comparison and
  the regression gate behind ``make bench-check``.

``python -m repro.bench run`` is the one way to run the evaluation and
check its shapes; see ``docs/BENCHMARKS.md`` for the workflow.
"""

from repro.bench.harness import (
    REGISTRY,
    BenchContext,
    Benchmark,
    BenchmarkRegistry,
    BenchmarkResult,
    SuiteResult,
    load_result,
    render_result,
    render_suite,
    run_benchmark,
    run_suite,
    validate_result,
    write_result,
)
from repro.bench.model import (
    OrderingCapacityModel,
    SignatureThroughputModel,
    eq1_bound,
)
from repro.bench.topology import (
    AWS_REGIONS,
    aws_latency_model,
    aws_oneway_seconds,
    lan_latency_model,
)
from repro.bench.workload import OpenLoopGenerator, envelope_stream

__all__ = [
    "AWS_REGIONS",
    "Benchmark",
    "BenchmarkRegistry",
    "BenchmarkResult",
    "BenchContext",
    "OpenLoopGenerator",
    "OrderingCapacityModel",
    "REGISTRY",
    "SignatureThroughputModel",
    "SuiteResult",
    "aws_latency_model",
    "aws_oneway_seconds",
    "envelope_stream",
    "eq1_bound",
    "lan_latency_model",
    "load_result",
    "render_result",
    "render_suite",
    "run_benchmark",
    "run_suite",
    "validate_result",
    "write_result",
]
