"""The benchmark's own tests: short runs of every workload, and planted
faults the correctness checks must catch.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Outcomes  # noqa: E402

#: shortens every simulated run (leader_crash keeps its crash window)
SCALE = 0.25


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(text: str):
    return json.loads(text.strip().splitlines()[-1])


def short_run(workload: str, trace: int, capsys, seed: int = 3):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace)],
        scale=SCALE,
    )
    out = capsys.readouterr().out
    assert code == 0, out
    return out, last_json(out)


def rep(workload: str, seed: int = 3, **hooks):
    wl = WORKLOADS[workload](SCALE)
    return run.run_rep(wl, wl.make_inputs(seed), seed, **hooks)


# ----------------------------------------------------------------------
# every metric, by name, with its unit
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_command():
    spec = bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_prints_every_end_to_end_metric(workload, capsys):
    out, result = short_run(workload, 0, capsys)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in bench_spec()["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, metric["name"]
        assert f"  {metric['name']} " in out
    assert set(result["metrics"]) == {m["name"] for m in bench_spec()["end_to_end"]}
    for name in ("failed_fraction", "latency_samples"):
        assert f"  {name} " in out
    if workload == "leader_crash":
        assert "  outage_s " in out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload, capsys):
    out, result = short_run(workload, 1, capsys)
    assert set(result["metrics"]) == {m["name"] for m in bench_spec()["per_layer"]}
    for metric in bench_spec()["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # per-layer self times plus other.self_s account for the traced wall time
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0, abs=0.05)
    assert metrics["sim.events"] > 0 and metrics["crypto.hash.calls"] > 0
    if workload == "fabric_e2e":
        assert metrics["smart2.calls"] > 0 and metrics["fabric.self_s"] > 0
        assert metrics["smart.calls"] == 0
    else:
        assert metrics["smart.calls"] > 0 and metrics["smart2.calls"] == 0
    if workload == "leader_crash":
        assert metrics["smart.regency_changes"] >= 1
    assert "covered bindings: " in out and "repro.fabric.envelope.sha256" in out


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_repeats_of_a_seed_are_identical_and_seeds_differ():
    first, print_a = rep("geo_wheat", seed=5)
    _, print_b = rep("geo_wheat", seed=5)
    _, print_traced = rep("geo_wheat", seed=5, traced=True)
    _, print_other = rep("geo_wheat", seed=6)
    assert print_a == print_b == print_traced
    assert print_a != print_other
    assert first.sim["generator_lateness_s"] == 0.0


def test_inputs_come_from_the_seed():
    wl = WORKLOADS["fabric_e2e"](SCALE)
    assert wl.make_inputs(1) == wl.make_inputs(1)
    assert wl.make_inputs(1) != wl.make_inputs(2)


# ----------------------------------------------------------------------
# planted faults
# ----------------------------------------------------------------------
def expect_failure(workload: str, fragment: str, **hooks):
    with pytest.raises(run.CheckFailed) as caught:
        rep(workload, **hooks)
    assert any(fragment in failure for failure in caught.value.args[0]), caught.value


def test_dropped_envelope_is_caught():
    from repro.fabric.api import BlockDelivery
    from repro.fabric.block import Block

    def plant(dep):
        frontend = dep.service.frontends[1].name

        def drop_one(src, dst, payload):
            if (
                dst == frontend
                and isinstance(payload, BlockDelivery)
                and payload.block.header.number == 3
            ):
                block = payload.block
                stripped = Block(
                    header=block.header,
                    envelopes=block.envelopes[1:],
                    signatures=dict(block.signatures),
                    channel_id=block.channel_id,
                )
                return BlockDelivery(block=stripped, source=payload.source)
            return payload

        dep.service.network.add_filter(drop_one)

    expect_failure("geo_wheat", "delivered other envelopes", plant=plant)


def test_duplicate_commit_is_caught():
    def plant(dep):
        frontend = dep.service.frontends[0]
        original = frontend.submit
        seen = []

        def submit_twice_once(envelope):
            original(envelope)
            seen.append(envelope)
            if len(seen) == 7:
                original(envelope)  # a retransmission the service orders twice

        frontend.submit = submit_twice_once

    expect_failure("geo_wheat", "twice", plant=plant)


def test_tampered_frontend_ledger_is_caught():
    def tamper(dep):
        digests = dep.service.frontends[2].delivered_digests["geo"]
        digests[5] = bytes(32)

    expect_failure("geo_wheat", "ledger digests disagree", tamper=tamper)


def test_tampered_peer_ledger_is_caught():
    def tamper(dep):
        block = dep.peers[1].ledger.get(dep.peers[1].ledger.height - 1)
        block.envelopes[0], block.envelopes[1] = block.envelopes[1], block.envelopes[0]

    expect_failure("fabric_e2e", "ledger differs", tamper=tamper)


def test_balance_leak_is_caught():
    def tamper(dep):
        peer = dep.peers[0]
        key = "acct/a0"
        peer.state.apply_write(key, peer.state.get_value(key) + 1, peer.state.version_of(key))

    expect_failure("fabric_e2e", "total balance", tamper=tamper)


def test_diverging_replica_logs_are_caught():
    wl = WORKLOADS["geo_wheat"](SCALE)
    dep = wl.setup(3)
    wl.run(dep, wl.make_inputs(3))
    assert checks.check_replica_logs(dep, excluded=[]) == []
    log = dep.service.replicas[2].log
    cid, batch = log.entries[0]
    log._entries[0] = (cid, batch[1:])  # one replica's log loses a request
    assert checks.check_replica_logs(dep, excluded=[])


def test_late_generator_is_caught():
    outcomes = Outcomes()
    outcomes.attempt(due=1.0, now=1.0)
    outcomes.attempt(due=2.0, now=2.5)

    class Dep:
        pass

    dep = Dep()
    dep.outcomes = outcomes
    assert checks.check_generator(dep)


def test_silent_drop_is_caught():
    outcomes = Outcomes()
    outcomes.attempt(due=0.0, now=0.0)
    outcomes.finish(0, "ok", 0.1)
    outcomes.finish(0, "ok", 0.2)
    outcomes.attempt(due=0.5, now=0.5)

    class Dep:
        pass

    dep = Dep()
    dep.outcomes = outcomes
    failures = checks.check_exactly_once(dep)
    assert any("more than once" in f for f in failures)
    assert any("no outcome" in f for f in failures)


# ----------------------------------------------------------------------
# without the program the command fails, printing no result
# ----------------------------------------------------------------------
def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "geo_wheat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
