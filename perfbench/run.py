#!/usr/bin/env python3
"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lan_saturated --seed 1 --seconds 20 --trace 0

The run repeats the workload -- set-up, then a fixed simulated run --
until ``--seconds`` of wall time are used, and reports medians over the
repetitions.  Simulated metrics are deterministic for a seed; every
repetition must reproduce the first one exactly, and must pass the
correctness checks of ``checks.py``, or the run exits nonzero without a
result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see ``tracing.py``), plus the tracing overhead; the spans of
the last traced repetition are written to
``.perfbench_out/<workload>-seed<seed>.spans.tsv.gz``.

Human-readable ``name value unit`` lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import calibration_seconds, to_reference
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: end-to-end metrics in the JSON result (BENCHMARK.json ``end_to_end``)
END_TO_END = (
    ("goodput_tps", "env/s"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
    ("completed_fraction", "ratio"),
    ("sim_s_per_ref_s", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: printed as ``name value unit`` on every run, but not in the JSON
#: result (``outage_s`` exists on leader_crash only)
PRINTED = (
    ("sim_s_per_wall_s", "ratio"),
    ("setup_wall_s", "s"),
    ("failed_fraction", "ratio"),
    ("latency_samples", "count"),
    ("outage_s", "s"),
    ("generator_lateness_s", "s"),
    ("sim.events", "count"),
    ("sim.net.messages", "count"),
    ("sim.net.bytes", "B"),
    ("sim.net.nic_busy_frac", "ratio"),
    ("sim.cpu.busy_frac", "ratio"),
    ("fabric.valid", "count"),
    ("fabric.mvcc_conflicts", "count"),
)

#: each untraced timed run is cut into this many equal simulated slices,
#: with a host-speed calibration between consecutive slices
SLICES = 20

#: a set-up cheaper than this (wall seconds) is timed this many times
#: per repetition, so its median rests on enough samples
CHEAP_SETUP_S = 0.05
SETUP_SAMPLES = 5

#: per-layer metrics in the JSON result (BENCHMARK.json ``per_layer``)
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("sim.run.self_s", "s"),
    ("sim.net.self_s", "s"),
    ("sim.net.messages_per_env", "msg/env"),
    ("sim.net.bytes_per_env", "B/env"),
    ("sim.net.nic_busy_frac", "ratio"),
    ("sim.cpu.busy_frac", "ratio"),
    ("smart.calls", "count"),
    ("smart.self_s", "s"),
    ("smart.msgs_per_decision", "msg/decision"),
    ("smart.envs_per_decision", "env/decision"),
    ("smart.regency_changes", "count"),
    ("smart.proxy_retries", "count"),
    ("smart2.calls", "count"),
    ("smart2.self_s", "s"),
    ("smart2.view_changes", "count"),
    ("ordering.self_s", "s"),
    ("ordering.submit.self_s", "s"),
    ("ordering.deliver.self_s", "s"),
    ("ordering.execute.self_s", "s"),
    ("ordering.copies_per_block", "copy/block"),
    ("ordering.envs_per_block", "env/block"),
    ("crypto.self_s", "s"),
    ("crypto.hash.calls", "count"),
    ("crypto.hash.bytes", "B"),
    ("crypto.hash.self_s", "s"),
    ("crypto.sign.calls", "count"),
    ("crypto.verify.calls", "count"),
    ("crypto.sig.self_s", "s"),
    ("fabric.self_s", "s"),
    ("fabric.endorse.self_s", "s"),
    ("fabric.validate.self_s", "s"),
    ("fabric.commit.self_s", "s"),
    ("fabric.client.self_s", "s"),
    ("fabric.mvcc_conflicts", "count"),
    ("fabric.valid_ratio", "ratio"),
    ("other.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
)


class CheckFailed(Exception):
    """A correctness check failed; the run must not report a result."""


@dataclass
class Rep:
    """One repetition: set-up, timed run, collected outputs."""

    traced: bool
    wall_s: float
    sim_s: float
    #: (wall, reference-host) seconds of this repetition's build plus,
    #: when set-up is cheap, of extra builds (see calibrate.py)
    setup_samples: List[Tuple[float, float]]
    #: timed-run wall time on the reference host (untraced repetitions;
    #: a traced repetition is not calibrated and repeats ``wall_s``)
    ref_s: float
    #: simulated end-to-end metrics and exact counts (deterministic)
    sim: Dict[str, float]
    #: the program's own counters over the timed run (deterministic)
    counts: Dict[str, float]
    #: the tracer of a traced repetition
    tracer: Any = None

    @property
    def speed(self) -> float:
        return self.sim_s / self.wall_s

    @property
    def ref_speed(self) -> float:
        return self.sim_s / self.ref_s


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q`` quantile of sorted ``values`` by the nearest-rank rule."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


# ----------------------------------------------------------------------
# counters the program already exposes
# ----------------------------------------------------------------------
def read_counters(dep) -> Dict[str, float]:
    """Snapshot of the program's cumulative counters (no wrapping)."""
    service = dep.service
    network = service.network
    counts: Dict[str, float] = {
        "events": service.sim.processed_events,
        "messages": network.stats.messages_sent,
        "bytes": network.stats.bytes_sent,
        "blocks": sum(fe.blocks_delivered for fe in service.frontends),
        "blocks0": service.frontends[0].blocks_delivered,
        "envelopes0": len(dep.delivered_ids[0]) if dep.delivered_ids else 0,
    }
    for node_id in sorted(network.node_ids(), key=str):
        counts[f"nic:{node_id}"] = network.nic_of(node_id).busy_seconds
    for index, cpu in enumerate(service.cpus):
        if cpu is not None:
            counts[f"cpu:{index}"] = cpu.busy_core_seconds
    if service.config.orderer == "bftsmart":
        replicas = service.replicas
        counts["decisions"] = max(r.counters.consensus_decided for r in replicas)
        counts["executed"] = max(r.counters.requests_executed for r in replicas)
        counts["regency_changes"] = max(r.counters.regency_changes for r in replicas)
    else:
        counts["view_changes"] = max(n.view_number for n in service.nodes)
    return counts


def counter_deltas(
    before: Dict[str, float], after: Dict[str, float], sim_s: float, dep
) -> Dict[str, float]:
    delta = {k: after[k] - before.get(k, 0) for k in after}
    nic = [v for k, v in delta.items() if k.startswith("nic:")]
    cpu = [v for k, v in delta.items() if k.startswith("cpu:")]
    cores = [c.physical_cores for c in dep.service.cpus if c is not None]
    counts = {
        k: v for k, v in delta.items() if not k.startswith(("nic:", "cpu:"))
    }
    counts["nic_busy_frac"] = max(nic) / sim_s if nic else 0.0
    counts["cpu_busy_frac"] = max(cpu) / (sim_s * cores[0]) if cpu else 0.0
    codes: Counter = Counter()
    if dep.peers:
        start = dep.setup_height
        for record in dep.peers[0].commits[start:]:
            codes.update(code.value for code in record.codes)
    counts["valid"] = codes.get("VALID", 0)
    counts["mvcc_conflicts"] = codes.get("MVCC_READ_CONFLICT", 0)
    counts["committed_txs"] = sum(codes.values())
    return counts


# ----------------------------------------------------------------------
# end-to-end metrics and checks
# ----------------------------------------------------------------------
def simulated_metrics(dep) -> Dict[str, float]:
    window = dep.window
    outcomes = dep.outcomes
    from workloads import OK

    done = sorted(
        t
        for t, o in zip(outcomes.done_at, outcomes.outcome)
        if o == OK and window.measure_from <= t <= window.load_end
    )
    latencies = sorted(
        t - due
        for due, t, o in zip(outcomes.due, outcomes.done_at, outcomes.outcome)
        if o == OK and window.measure_from <= due < window.load_end
    )
    if len(done) < 2 or not latencies:
        raise CheckFailed(["too few requests completed inside the measurement window"])
    completed = outcomes.count(OK)
    metrics = {
        # completions after the window's first one, per second from the
        # first to the last (blocks complete many requests at one time)
        "goodput_tps": sum(1 for t in done if t > done[0]) / (done[-1] - done[0]),
        "latency_p50_s": nearest_rank(latencies, 0.50),
        "latency_p99_s": nearest_rank(latencies, 0.99),
        "latency_samples": len(latencies),
        "attempted": outcomes.attempted,
        "completed": completed,
        "failed": outcomes.attempted - completed,
        "failed_fraction": (outcomes.attempted - completed) / outcomes.attempted,
        "completed_fraction": completed / outcomes.attempted,
        "generator_lateness_s": outcomes.max_lateness,
    }
    for outcome, count in sorted(Counter(outcomes.outcome).items()):
        metrics[f"outcome.{outcome}"] = count
    times = dep.delivery_times
    crash_time = dep.crash_time
    if crash_time is not None:
        # the longest gap in frontend-0 deliveries spanning the crash
        before = [t for t in times if t <= crash_time]
        after = [t for t in times if t > crash_time]
        if not before or not after:
            raise CheckFailed(["no delivery on one side of the crash"])
        metrics["outage_s"] = after[0] - before[-1]
    return metrics


def run_checks(workload, dep) -> List[str]:
    import checks

    dep.outcomes.close()
    failures = checks.check_generator(dep) + checks.check_exactly_once(dep)
    skip = dep.setup_delivered or [0] * len(dep.delivered_ids)
    failures += checks.check_frontends_agree(dep, skip)
    if dep.peers:
        failures += checks.check_peers(
            dep, workload.accounts, workload.opening_balance
        )
    else:
        failures += checks.check_ordering_delivery(dep, dep.home)
    if dep.crashed is not None:
        failures += checks.check_replica_logs(dep, [dep.crashed])
    return failures


def fingerprint(rep: Rep, dep) -> Tuple:
    """Everything that must repeat exactly for one seed."""
    digests = dep.service.ledger_digests()
    return (
        tuple(sorted(rep.sim.items())),
        tuple(sorted(rep.counts.items())),
        tuple(digests[name].hex() for name in sorted(digests)),
    )


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def timed_setup(workload, seed: int) -> Tuple[Any, float, float, float]:
    """Build the deployment; return it with its set-up time in wall and
    reference seconds and the calibration measured right after."""
    from workloads import pin_ids

    gc.collect()
    pin_ids()
    before = calibration_seconds()
    started = time.perf_counter()
    dep = workload.setup(seed)
    setup_s = time.perf_counter() - started
    after = calibration_seconds()
    return dep, setup_s, to_reference(setup_s, before, after), after


def run_rep(
    workload,
    inputs: Dict[str, Any],
    seed: int,
    traced: bool = False,
    plant: Optional[Callable] = None,
    tamper: Optional[Callable] = None,
) -> Tuple[Rep, Tuple]:
    """Set up, run and check one repetition.

    ``plant`` is called with the deployment before the run and
    ``tamper`` after it -- the benchmark's own tests use them to plant
    faults the checks must catch.
    """
    dep, setup_s, setup_ref_s, previous = timed_setup(workload, seed)
    if plant is not None:
        plant(dep)
    before = read_counters(dep)
    sim_start = dep.sim.now
    tracer = None
    wall_s = ref_s = 0.0
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            wall_s = ref_s = tracer.region(workload.run, dep, inputs)
        finally:
            tracer.uninstall()
    else:
        # the same run as workload.run, cut into simulated slices so each
        # slice's wall time is scaled by the host speed measured around it
        workload.start(dep, inputs)
        window = dep.window
        span = window.horizon - window.start
        for k in range(1, SLICES + 1):
            until = window.horizon if k == SLICES else window.start + span * k / SLICES
            started = time.perf_counter()
            dep.sim.run(until=until)
            elapsed = time.perf_counter() - started
            calibration = calibration_seconds()
            wall_s += elapsed
            ref_s += to_reference(elapsed, previous, calibration)
            previous = calibration
    sim_s = dep.sim.now - sim_start
    if tamper is not None:
        tamper(dep)
    failures = run_checks(workload, dep)
    if failures:
        raise CheckFailed(failures)
    setup_samples = [(setup_s, setup_ref_s)]
    if setup_s < CHEAP_SETUP_S:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(timed_setup(workload, seed)[1:3])
    rep = Rep(
        traced=traced,
        wall_s=wall_s,
        sim_s=sim_s,
        setup_samples=setup_samples,
        ref_s=ref_s,
        sim=simulated_metrics(dep),
        counts=counter_deltas(before, read_counters(dep), sim_s, dep),
        tracer=tracer,
    )
    return rep, fingerprint(rep, dep)


def layer_metrics(rep: Rep) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    tracer = rep.tracer
    counts = rep.counts
    layers = tracer.layer_self_times()
    envs = counts["envelopes0"]
    decisions = counts.get("decisions", 0)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    self_time = tracer.self_time
    calls = tracer.call_count
    return {
        "sim.events": counts["events"],
        "sim.self_s": layers["sim"],
        "sim.run.self_s": self_time("sim.run"),
        "sim.net.self_s": self_time("sim.net"),
        "sim.net.messages_per_env": per(counts["messages"], envs),
        "sim.net.bytes_per_env": per(counts["bytes"], envs),
        "sim.net.nic_busy_frac": counts["nic_busy_frac"],
        "sim.cpu.busy_frac": counts["cpu_busy_frac"],
        "smart.calls": calls("smart.deliver"),
        "smart.self_s": layers["smart"],
        "smart.msgs_per_decision": per(tracer.replica_messages, decisions),
        "smart.envs_per_decision": per(counts.get("executed", 0), decisions),
        "smart.regency_changes": counts.get("regency_changes", 0),
        "smart.proxy_retries": calls("smart.proxy.transmit")
        - calls("smart.proxy.invoke"),
        "smart2.calls": calls("smart2.deliver") + calls("smart2.frontend.deliver"),
        "smart2.self_s": layers["smart2"],
        "smart2.view_changes": counts.get("view_changes", 0),
        "ordering.self_s": layers["ordering"],
        "ordering.submit.self_s": self_time("ordering.submit"),
        "ordering.deliver.self_s": self_time("ordering.deliver"),
        "ordering.execute.self_s": self_time("ordering.execute"),
        "ordering.copies_per_block": per(tracer.block_copies, counts["blocks"]),
        "ordering.envs_per_block": per(envs, counts["blocks0"]),
        "crypto.self_s": layers["crypto"],
        "crypto.hash.calls": calls("crypto.hash"),
        "crypto.hash.bytes": tracer.hashed_bytes,
        "crypto.hash.self_s": self_time("crypto.hash") + self_time("crypto.encode"),
        "crypto.sign.calls": calls("crypto.sign"),
        "crypto.verify.calls": calls("crypto.verify"),
        "crypto.sig.self_s": self_time("crypto.sign") + self_time("crypto.verify"),
        "fabric.self_s": layers["fabric"],
        "fabric.endorse.self_s": self_time("fabric.endorse"),
        "fabric.validate.self_s": self_time("fabric.validate"),
        "fabric.commit.self_s": self_time("fabric.commit"),
        "fabric.client.self_s": self_time("fabric.client"),
        "fabric.mvcc_conflicts": counts["mvcc_conflicts"],
        "fabric.valid_ratio": per(counts["valid"], counts["committed_txs"]),
        "other.self_s": layers["other"],
        "trace.accounted_frac": sum(layers.values()) / rep.wall_s,
    }


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float, trace: bool) -> List[Rep]:
    """Repeat the workload until ``seconds`` of wall time are used."""
    inputs = workload.make_inputs(seed)
    reps: List[Rep] = []
    reference: Optional[Tuple] = None
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep, print_ = run_rep(workload, inputs, seed, traced=traced)
        if reference is None:
            reference = print_
        elif print_ != reference:
            raise CheckFailed(
                [f"repetition {len(reps)} is not identical to repetition 0"]
            )
        reps.append(rep)
        elapsed = time.perf_counter() - started
        average = elapsed / len(reps)
        enough = len(reps) >= (4 if trace else 2)
        if enough and elapsed + average > seconds:
            return reps


def report(name: str, seed: int, reps: List[Rep], trace: bool) -> Dict[str, Any]:
    """Print every metric as ``name value unit``; return the JSON result."""
    untraced = [r for r in reps if not r.traced]
    first = untraced[0]
    sim = first.sim
    values: Dict[str, float] = {
        **sim,
        "sim_s_per_ref_s": statistics.median(r.ref_speed for r in untraced),
        "setup_s": statistics.median(ref for r in reps for _, ref in r.setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_s_per_wall_s": statistics.median(r.speed for r in untraced),
        "setup_wall_s": statistics.median(w for r in reps for w, _ in r.setup_samples),
    }
    values.update(
        {
            "sim.events": first.counts["events"],
            "sim.net.messages": first.counts["messages"],
            "sim.net.bytes": first.counts["bytes"],
            "sim.net.nic_busy_frac": first.counts["nic_busy_frac"],
            "sim.cpu.busy_frac": first.counts["cpu_busy_frac"],
            "fabric.valid": first.counts["valid"],
            "fabric.mvcc_conflicts": first.counts["mvcc_conflicts"],
        }
    )
    print(f"workload {name} seed {seed}: {len(untraced)} untraced"
          f" + {len(reps) - len(untraced)} traced repetitions")
    for key, unit in END_TO_END + PRINTED:
        if key in values:
            print(f"  {key} {values[key]:.6g} {unit}")
    for key in sorted(sim):
        if key.startswith("outcome."):
            print(f"  {key} {sim[key]} count")
    if not trace:
        chosen = {key: (values[key], unit) for key, unit in END_TO_END}
    else:
        traced = [r for r in reps if r.traced]
        per_rep = [layer_metrics(r) for r in traced]
        layer = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
        traced_speed = statistics.median(r.speed for r in traced)
        layer["trace.overhead_frac"] = 1.0 - traced_speed / values["sim_s_per_wall_s"]
        chosen = {key: (layer[key], unit) for key, unit in PER_LAYER}
        print("  per-layer (median of traced repetitions):")
        for key, (value, unit) in chosen.items():
            print(f"  {key} {value:.6g} {unit}")
        tracer = traced[-1].tracer
        print("  covered bindings: " + ", ".join(tracer.covered))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{seed}.spans.tsv.gz"
        written = tracer.write(str(path))
        print(f"  wrote {written} spans to {path.relative_to(ROOT)}")
    return {
        "correct": True,
        "attempted": int(sim["attempted"]),
        "failed": int(sim["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv: Optional[List[str]] = None, scale: float = 1.0) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](scale)
    try:
        reps = measure(workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        for failure in exc.args[0]:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, reps, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
