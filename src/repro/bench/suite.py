"""The registered benchmark suite: every paper figure as a matrix.

Importing this module populates :data:`repro.bench.harness.REGISTRY`
with one declarative benchmark per table/figure of the evaluation (plus
our ablations and the orderer baselines).  The paper's shape properties
(peak ~8,400 sig/s, WHEAT well under BFT-SMaRt's geo latency, ...) are
declared next to each benchmark as ``checks`` over the run's
:class:`~repro.bench.harness.SuiteResult`; ``bench run`` evaluates them
on full-mode results and exits 1 when one fails.

Each benchmark declares a ``smoke_matrix``: the seconds-fast subset
``make bench-smoke`` and the tier-1 smoke tests execute.  All
measurements run inside the deterministic simulator, so results are
bit-identical for identical seeds — which is what lets a committed
``BENCH_smoke.json`` act as a cross-machine regression baseline.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.figures import (
    BLOCK_SIZES,
    CLUSTER_SIZES,
    ENVELOPE_SIZES,
    GEO_FRONTEND_SITES,
    RECEIVER_COUNTS,
    conclusion_comparison,
    figure6,
    geo_latency_experiment,
    kernel_speed,
    simulate_lan_throughput,
    wheat_ablation_point,
)
from repro.bench.harness import REGISTRY, BenchContext, CheckSkipped, SuiteResult
from repro.bench.model import (
    OrderingCapacityModel,
    SignatureThroughputModel,
    eq1_bound,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.fabric.orderers import KafkaCluster, KafkaOrderer, SoloOrderer
from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.sim import ConstantLatency, Network, RandomStreams, Simulator
from repro.sim.storage import StorageFaults


def _approx(actual: float, expected: float, rel: float) -> bool:
    """``actual == pytest.approx(expected, rel=rel)``."""
    return abs(actual - expected) <= max(rel * abs(expected), 1e-12)


# ----------------------------------------------------------------------
# Figure 6: signature-generation throughput
# ----------------------------------------------------------------------
def figure6_signature_scaling(suite: SuiteResult) -> None:
    result = suite.benchmark("fig6_signing")

    measured = {
        p.params["workers"]: p.metrics["sig_per_sec"].median for p in result.points
    }
    # paper shape 1: monotone scaling with workers
    ordered = [measured[w] for w in sorted(measured)]
    assert all(a <= b * 1.001 for a, b in zip(ordered, ordered[1:]))
    # paper shape 2: the peak lands at ~8,400 sig/s
    assert _approx(measured[16], 8400, rel=0.05)
    # paper shape 3: near-linear up to the 8 physical cores, then a knee
    assert _approx(measured[8], 8 * measured[1], rel=0.05)
    gain_per_thread_low = (measured[8] - measured[1]) / 7.0
    gain_per_thread_high = (measured[16] - measured[8]) / 8.0
    assert gain_per_thread_high < 0.5 * gain_per_thread_low
    # paper headline: 84,000 tx/s theoretical bound at 10 env/block
    assert _approx(result.value("tx_per_sec_bound", workers=16), 84000, rel=0.05)
    # simulation agrees with the closed-form model
    for point in result.points:
        assert _approx(
            point.metrics["sig_per_sec"].median,
            point.metrics["model_sig_per_sec"].median,
            rel=0.02,
        ), point.params


def figure6_rate_independent_of_sizes(suite: SuiteResult) -> None:
    """§6.1: header-only signing makes the rate size-invariant."""
    result = suite.benchmark("fig6_invariance")
    rates = {p.metrics["sig_per_sec"].median for p in result.points}
    assert len(rates) == 1


@REGISTRY.register(
    name="fig6_signing",
    description="Figure 6: ECDSA signing throughput vs worker threads "
    "on the simulated 8-core/16-thread Xeon.",
    matrix={
        "workers": tuple(range(1, 17)),
        "envelopes_per_block": (10,),
        "measure_seconds": (1.0,),
    },
    smoke_matrix={
        "workers": (1, 8, 16),
        "envelopes_per_block": (10,),
        "measure_seconds": (0.5,),
    },
    directions={
        "sig_per_sec": "higher",
        "model_sig_per_sec": "higher",
        "tx_per_sec_bound": "higher",
    },
    tags=("figure6", "signing"),
    checks=(figure6_signature_scaling,),
)
def fig6_signing(ctx: BenchContext) -> Dict[str, float]:
    row = figure6(
        ctx["workers"],
        envelopes_per_block=ctx["envelopes_per_block"],
        measure_seconds=ctx["measure_seconds"],
    )
    return {
        "sig_per_sec": row["measured"],
        "model_sig_per_sec": row["model"],
        "tx_per_sec_bound": row["theoretical_tx_per_sec"],
    }


@REGISTRY.register(
    name="fig6_invariance",
    description="§6.1: signing rate is independent of envelope and "
    "block sizes (only the header is signed).",
    matrix={
        "envelope_size": ENVELOPE_SIZES,
        "block_size": BLOCK_SIZES,
        "workers": (16,),
    },
    smoke_matrix={
        "envelope_size": (40, 4096),
        "block_size": (10,),
        "workers": (16,),
    },
    directions={"sig_per_sec": "higher"},
    tags=("figure6", "signing"),
    checks=(figure6_rate_independent_of_sizes,),
)
def fig6_invariance(ctx: BenchContext) -> Dict[str, float]:
    model = SignatureThroughputModel()
    return {"sig_per_sec": model.throughput(ctx["workers"])}


# ----------------------------------------------------------------------
# Figure 7: LAN ordering throughput (capacity model + full-stack DES)
# ----------------------------------------------------------------------
def figure7_all_panels(suite: SuiteResult) -> None:
    """Figure 7 (a-f) shapes over the six capacity-model panels."""
    result = suite.benchmark("fig7_capacity")

    def panel(orderers, block_size):
        return {
            es: {
                r: result.value(
                    "tx_per_sec",
                    orderers=orderers,
                    block_size=block_size,
                    envelope_size=es,
                    receivers=r,
                )
                for r in RECEIVER_COUNTS
            }
            for es in ENVELOPE_SIZES
        }

    panels = {
        (n, bs): panel(n, bs) for n in CLUSTER_SIZES for bs in BLOCK_SIZES
    }

    for (orderers, block_size), rows in panels.items():
        for es in ENVELOPE_SIZES:
            series = [rows[es][r] for r in RECEIVER_COUNTS]
            # shape: monotone non-increasing in receivers
            assert all(a >= b * 0.999 for a, b in zip(series, series[1:]))
        for r in RECEIVER_COUNTS:
            by_size = [rows[es][r] for es in ENVELOPE_SIZES]
            # shape: smaller envelopes never do worse
            assert all(a >= b * 0.999 for a, b in zip(by_size, by_size[1:]))

    # peak ~50k tx/s for 10-envelope blocks (paper: ~50,000)
    peak_10 = panels[(4, 10)][40][1]
    assert 45_000 < peak_10 < 60_000
    # 100-envelope blocks lift small-envelope throughput
    assert panels[(4, 100)][40][1] > panels[(4, 10)][40][1]
    # worst case (10 orderers, 4 KB, 32 receivers) ~2,200 tx/s
    floor = panels[(10, 100)][4096][32]
    assert 1_500 < floor < 3_000
    # receiver impact smaller for big envelopes (relative drop 1->32)
    drop_small = panels[(4, 10)][40][1] / panels[(4, 10)][40][32]
    drop_large = panels[(4, 10)][4096][1] / panels[(4, 10)][4096][32]
    assert drop_large < drop_small
    # convergence: at 32 receivers, the (cluster, block) spread of each
    # envelope size is much tighter than at 1 receiver
    for es in (1024, 4096):
        at_1 = [panels[key][es][1] for key in panels]
        at_32 = [panels[key][es][32] for key in panels]
        assert (max(at_32) / min(at_32)) < (max(at_1) / min(at_1)) * 1.01


def figure7_block_rate_about_1100(suite: SuiteResult) -> None:
    """§6.2: ~1,100 blocks/s when cutting 100-envelope blocks."""
    result = suite.benchmark("fig7_capacity")
    block_rate = result.value(
        "blocks_per_sec", orderers=4, block_size=100, envelope_size=200, receivers=4
    )
    assert 300 < block_rate < 3_000


def figure7_simulation_cross_validation(suite: SuiteResult) -> None:
    """Full-stack DES vs capacity model across operating points."""
    result = suite.benchmark("fig7_lan_sim")

    # propose-bandwidth-bound point: model and sim agree well
    generated = result.value("generated_tx_per_sec", envelope_size=1024, receivers=2)
    predicted = result.value("model_tx_per_sec", envelope_size=1024, receivers=2)
    assert _approx(generated, predicted, rel=0.25)
    # same order of magnitude in every regime
    for point in result.points:
        model = point.metrics["model_tx_per_sec"].median
        sim = point.metrics["generated_tx_per_sec"].median
        assert sim > model * 0.3, point.params
        assert sim < model * 3.0, point.params


def receiver_sweep_end_to_end(suite: SuiteResult) -> None:
    """Figure 7's central trend on the full simulated stack: delivered
    throughput falls as the receiver count sweeps 1 -> 4 -> 16."""
    result = suite.benchmark("fig7_lan_sim")

    delivered = dict(
        result.series("delivered_tx_per_sec", over="receivers", envelope_size=1024)
    )
    # the paper's shape: fewer transactions get through as fan-out grows
    assert delivered[1] >= delivered[4] * 0.99
    assert delivered[4] > delivered[16]
    # and the decline is substantial by 16 receivers (NIC-bound)
    assert delivered[16] < 0.8 * delivered[1]
    # generation at node 0 stays decoupled from fan-out only until the
    # NIC saturates; sanity-check it never exceeds the offered load
    for point in result.points:
        assert (
            point.metrics["generated_tx_per_sec"].median
            <= point.metrics["offered_tx_per_sec"].median * 1.05
        ), point.params


def eq1_holds_for_simulated_measurement(suite: SuiteResult) -> None:
    """A real (simulated) measurement must stay below the Equation 1
    bound, like the paper's measured 50k < 84k for 10-envelope blocks.

    The bound is exact in the signing-bound regime (small envelopes);
    at bandwidth-bound points the short measurement window lets the
    node-0 signing meter burst briefly above the sustained bound, so
    those points get a transient tolerance.
    """
    result = suite.benchmark("fig7_lan_sim")
    for point in result.points:
        bound = eq1_bound(
            point.params["block_size"],
            point.params["envelope_size"],
            point.params["receivers"],
            n=point.params["orderers"],
        )
        generated = point.metrics["generated_tx_per_sec"].median
        if point.params["envelope_size"] <= 200:
            assert generated <= bound, point.params
        else:
            assert generated <= bound * 1.25, point.params


@REGISTRY.register(
    name="fig7_capacity",
    description="Figure 7 (a-f): LAN ordering throughput by cluster "
    "size, block size, envelope size, and receivers (capacity model).",
    matrix={
        "orderers": CLUSTER_SIZES,
        "block_size": BLOCK_SIZES,
        "envelope_size": ENVELOPE_SIZES,
        "receivers": RECEIVER_COUNTS,
    },
    smoke_matrix={
        "orderers": (4,),
        "block_size": (10,),
        "envelope_size": (40, 4096),
        "receivers": (1, 32),
    },
    directions={"tx_per_sec": "higher", "blocks_per_sec": "higher"},
    tags=("figure7", "lan"),
    checks=(figure7_all_panels, figure7_block_rate_about_1100),
)
def fig7_capacity(ctx: BenchContext) -> Dict[str, float]:
    model = OrderingCapacityModel(n=ctx["orderers"])
    tx = model.throughput(ctx["envelope_size"], ctx["block_size"], ctx["receivers"])
    return {"tx_per_sec": tx, "blocks_per_sec": tx / ctx["block_size"]}


@REGISTRY.register(
    name="fig7_lan_sim",
    description="Figure 7 cross-validation: the full simulated stack "
    "(clients -> consensus -> signing -> dissemination) at ~capacity.",
    matrix={
        "envelope_size": (200, 1024, 4096),
        "receivers": (1, 2, 4, 16),
        "orderers": (4,),
        "block_size": (10,),
        "duration": (1.0,),
        "warmup": (0.3,),
    },
    smoke_matrix={
        "envelope_size": (1024,),
        "receivers": (1, 4),
        "orderers": (4,),
        "block_size": (10,),
        "duration": (0.4,),
        "warmup": (0.2,),
    },
    directions={
        "generated_tx_per_sec": "higher",
        "delivered_tx_per_sec": "higher",
        "model_tx_per_sec": "higher",
        "offered_tx_per_sec": "higher",
    },
    tags=("figure7", "lan", "sim"),
    checks=(
        figure7_simulation_cross_validation,
        receiver_sweep_end_to_end,
        eq1_holds_for_simulated_measurement,
    ),
)
def fig7_lan_sim(ctx: BenchContext) -> Dict[str, float]:
    result = simulate_lan_throughput(
        orderers=ctx["orderers"],
        block_size=ctx["block_size"],
        envelope_size=ctx["envelope_size"],
        receivers=ctx["receivers"],
        duration=ctx["duration"],
        warmup=ctx["warmup"],
        seed=ctx.seed,
        observability=ctx.obs,
    )
    return {
        "generated_tx_per_sec": result.generated_rate,
        "delivered_tx_per_sec": result.delivered_rate,
        "model_tx_per_sec": result.model_prediction,
        "offered_tx_per_sec": result.offered_rate,
    }


# ----------------------------------------------------------------------
# Figures 8/9: geo-distributed latency
# ----------------------------------------------------------------------
def _geo_metrics(ctx: BenchContext) -> Dict[str, float]:
    rows = geo_latency_experiment(
        protocol=ctx["protocol"],
        envelope_size=ctx["envelope_size"],
        block_size=ctx["block_size"],
        rate=ctx["rate"],
        duration=ctx["duration"],
        warmup=ctx["warmup"],
        seed=ctx.seed,
    )
    metrics: Dict[str, float] = {}
    for row in rows:
        metrics[f"{row.frontend_region}_median_s"] = row.median
        metrics[f"{row.frontend_region}_p90_s"] = row.p90
        metrics[f"{row.frontend_region}_tx_per_sec"] = row.throughput
        metrics[f"{row.frontend_region}_samples"] = float(row.samples)
    return metrics


_GEO_DIRECTIONS = {}
for _region in GEO_FRONTEND_SITES:
    _GEO_DIRECTIONS[f"{_region}_median_s"] = "lower"
    _GEO_DIRECTIONS[f"{_region}_p90_s"] = "lower"
    _GEO_DIRECTIONS[f"{_region}_tx_per_sec"] = "higher"
    _GEO_DIRECTIONS[f"{_region}_samples"] = "higher"


def figure8_geo_latency(suite: SuiteResult) -> None:
    """Figure 8 shapes: WHEAT beats BFT-SMaRt at every frontend by
    roughly half, envelope size barely matters, medians stay near half
    a second."""
    result = suite.benchmark("fig8_geo")

    for es in ENVELOPE_SIZES:
        bft = result.point(protocol="bftsmart", envelope_size=es).metrics
        wheat = result.point(protocol="wheat", envelope_size=es).metrics
        for region in GEO_FRONTEND_SITES:
            # shape 1: WHEAT consistently beats BFT-SMaRt
            assert wheat[f"{region}_median_s"].median < bft[f"{region}_median_s"].median
            assert wheat[f"{region}_p90_s"].median < bft[f"{region}_p90_s"].median
            # sanity: enough samples and sustained >1000 tx/s
            assert bft[f"{region}_samples"].median > 1000
            assert bft[f"{region}_tx_per_sec"].median > 1000
            assert wheat[f"{region}_tx_per_sec"].median > 1000

    # shape 2: WHEAT's improvement is large (paper: almost 50%)
    for es in ENVELOPE_SIZES:
        bft = result.point(protocol="bftsmart", envelope_size=es).metrics
        wheat = result.point(protocol="wheat", envelope_size=es).metrics
        bft_median = min(
            bft[f"{r}_median_s"].median for r in GEO_FRONTEND_SITES
        )
        wheat_median = min(
            wheat[f"{r}_median_s"].median for r in GEO_FRONTEND_SITES
        )
        assert wheat_median < 0.75 * bft_median

    # shape 3: envelope size has minor impact on latency
    for protocol in ("bftsmart", "wheat"):
        for region in GEO_FRONTEND_SITES:
            medians = [
                result.value(
                    f"{region}_median_s", protocol=protocol, envelope_size=es
                )
                for es in ENVELOPE_SIZES
            ]
            assert max(medians) - min(medians) < 0.120

    # shape 4: half-a-second medians with WHEAT (paper's headline)
    for es in ENVELOPE_SIZES:
        wheat = result.point(protocol="wheat", envelope_size=es).metrics
        assert all(
            wheat[f"{region}_median_s"].median < 0.55
            for region in GEO_FRONTEND_SITES
        )


def figure9_geo_latency_blocks_of_100(suite: SuiteResult) -> None:
    """Figure 9 vs Figure 8: 100-envelope blocks cut 10x less often at
    the same load, so latency rises -- moderately (paper: up to ~63 ms)."""
    if "fig8_geo" not in {b.benchmark for b in suite.benchmarks}:
        raise CheckSkipped("needs fig8_geo")
    small_blocks = suite.benchmark("fig8_geo")
    large_blocks = suite.benchmark("fig9_geo")
    envelope_sizes = (200, 1024)  # the fig9 matrix (full sweep in fig8)

    for es in envelope_sizes:
        for protocol in ("bftsmart", "wheat"):
            small = small_blocks.point(protocol=protocol, envelope_size=es).metrics
            large = large_blocks.point(protocol=protocol, envelope_size=es).metrics
            for region in GEO_FRONTEND_SITES:
                # shape 1: larger blocks -> higher latency at the same load
                assert (
                    large[f"{region}_median_s"].median
                    > small[f"{region}_median_s"].median * 0.98
                )
        # WHEAT still wins with 100-envelope blocks
        bft = large_blocks.value("virginia_median_s", protocol="bftsmart",
                                 envelope_size=es)
        wheat = large_blocks.value("virginia_median_s", protocol="wheat",
                                   envelope_size=es)
        assert wheat < bft

    # shape 2: the increase is moderate (tens of milliseconds at this
    # load, matching the paper's "up to 63 ms higher")
    for es in envelope_sizes:
        small = min(
            small_blocks.value(f"{r}_median_s", protocol="wheat", envelope_size=es)
            for r in GEO_FRONTEND_SITES
        )
        large = min(
            large_blocks.value(f"{r}_median_s", protocol="wheat", envelope_size=es)
            for r in GEO_FRONTEND_SITES
        )
        assert large - small < 0.400


@REGISTRY.register(
    name="fig8_geo",
    description="Figure 8: geo latency with 10-envelope blocks, "
    "BFT-SMaRt vs WHEAT across four frontends.",
    matrix={
        "protocol": ("bftsmart", "wheat"),
        "envelope_size": ENVELOPE_SIZES,
        "block_size": (10,),
        "rate": (1100.0,),
        "duration": (6.0,),
        "warmup": (3.0,),
    },
    smoke_matrix={
        "protocol": ("bftsmart", "wheat"),
        "envelope_size": (1024,),
        "block_size": (10,),
        "rate": (700.0,),
        "duration": (1.5,),
        "warmup": (0.5,),
    },
    directions=_GEO_DIRECTIONS,
    tags=("figure8", "geo"),
    checks=(figure8_geo_latency,),
)
def fig8_geo(ctx: BenchContext) -> Dict[str, float]:
    return _geo_metrics(ctx)


@REGISTRY.register(
    name="fig9_geo",
    description="Figure 9: geo latency with 100-envelope blocks "
    "(same pattern as Figure 8, higher latency).",
    matrix={
        "protocol": ("bftsmart", "wheat"),
        "envelope_size": (200, 1024),
        "block_size": (100,),
        "rate": (1100.0,),
        "duration": (6.0,),
        "warmup": (3.0,),
    },
    smoke_matrix={
        "protocol": ("wheat",),
        "envelope_size": (1024,),
        "block_size": (100,),
        "rate": (700.0,),
        "duration": (1.5,),
        "warmup": (0.5,),
    },
    directions=_GEO_DIRECTIONS,
    tags=("figure9", "geo"),
    checks=(figure9_geo_latency_blocks_of_100,),
)
def fig9_geo(ctx: BenchContext) -> Dict[str, float]:
    return _geo_metrics(ctx)


# ----------------------------------------------------------------------
# Equation 1 and the §8 conclusion comparison
# ----------------------------------------------------------------------
def eq1_bounds_hold_everywhere(suite: SuiteResult) -> None:
    result = suite.benchmark("eq1_bounds")
    for point in result.points:
        predicted = point.metrics["predicted_tx_per_sec"].median
        bound = point.metrics["eq1_bound_tx_per_sec"].median
        assert predicted <= bound * 1.0001, point.params
        assert point.metrics["headroom_tx_per_sec"].median >= -1e-6 * bound, point.params


def conclusion_comparison_holds(suite: SuiteResult) -> None:
    result = suite.benchmark("conclusion")
    # §8: >= 2x Ethereum's theoretical peak, vastly above Bitcoin
    assert result.value("speedup_vs_ethereum") >= 1.5
    assert result.value("speedup_vs_bitcoin") > 200


@REGISTRY.register(
    name="eq1_bounds",
    description="Equation 1: TP_os <= min(TP_sign*bs, TP_bftsmart); "
    "headroom of the capacity model under the bound.",
    matrix={
        "orderers": CLUSTER_SIZES,
        "envelope_size": ENVELOPE_SIZES,
        "block_size": BLOCK_SIZES,
        "receivers": (1, 4, 32),
    },
    smoke_matrix={
        "orderers": (4, 10),
        "envelope_size": (40, 4096),
        "block_size": (10,),
        "receivers": (1, 32),
    },
    directions={
        "predicted_tx_per_sec": "higher",
        "eq1_bound_tx_per_sec": "higher",
        "headroom_tx_per_sec": "higher",
    },
    tags=("eq1",),
    checks=(eq1_bounds_hold_everywhere,),
)
def eq1_bounds(ctx: BenchContext) -> Dict[str, float]:
    model = OrderingCapacityModel(n=ctx["orderers"])
    predicted = model.throughput(
        ctx["envelope_size"], ctx["block_size"], ctx["receivers"]
    )
    bound = eq1_bound(
        ctx["block_size"], ctx["envelope_size"], ctx["receivers"], n=ctx["orderers"]
    )
    return {
        "predicted_tx_per_sec": predicted,
        "eq1_bound_tx_per_sec": bound,
        "headroom_tx_per_sec": bound - predicted,
    }


@REGISTRY.register(
    name="conclusion",
    description="§8: worst-case BFT ordering throughput vs Ethereum's "
    "theoretical 1,000 tx/s and Bitcoin's 7 tx/s.",
    matrix={},
    directions={
        "bft_worst_case_tx_per_sec": "higher",
        "speedup_vs_ethereum": "higher",
        "speedup_vs_bitcoin": "higher",
    },
    tags=("conclusion",),
    checks=(conclusion_comparison_holds,),
)
def conclusion(ctx: BenchContext) -> Dict[str, float]:
    comparison = conclusion_comparison()
    return {
        "bft_worst_case_tx_per_sec": comparison["bft_ordering_worst_case"],
        "speedup_vs_ethereum": comparison["speedup_vs_ethereum"],
        "speedup_vs_bitcoin": comparison["speedup_vs_bitcoin"],
    }


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def wheat_ablation(suite: SuiteResult) -> None:
    """Each WHEAT mechanism alone beats the baseline; together they win."""
    result = suite.benchmark("ablation_wheat")

    by_config = {
        (p.params["weights"], p.params["tentative"]): p.metrics["median_s"].median
        for p in result.points
    }
    baseline = by_config[(False, False)]
    weights_only = by_config[(True, False)]
    tentative_only = by_config[(False, True)]
    full_wheat = by_config[(True, True)]

    # each mechanism alone improves on the baseline
    assert weights_only < baseline
    assert tentative_only < baseline
    # the full combination is the best configuration
    assert full_wheat <= min(weights_only, tentative_only) * 1.05
    # and the combined gain is substantial
    assert full_wheat < 0.8 * baseline


def batch_limit_ablation(suite: SuiteResult) -> None:
    """Batching amortizes per-consensus vote traffic, so small batches
    hurt small-envelope throughput and barely matter for 4 KB envelopes
    (bandwidth-bound)."""
    result = suite.benchmark("ablation_batching")
    batches = (1, 10, 50, 100, 400)

    small = [
        result.value("tx_per_sec", batch_limit=b, envelope_size=40)
        for b in batches
    ]
    assert all(a <= b * 1.0001 for a, b in zip(small, small[1:]))  # monotone
    assert small[-1] > 1.5 * small[0]  # batching matters a lot
    large = [
        result.value("tx_per_sec", batch_limit=b, envelope_size=4096)
        for b in (10, 50, 100, 400)
    ]
    assert max(large) < min(large) * 1.05  # 4 KB is bandwidth-bound


@REGISTRY.register(
    name="ablation_wheat",
    description="WHEAT ablation: vote weights and tentative execution "
    "toggled independently on the 5-replica geo deployment.",
    matrix={
        "weights": (False, True),
        "tentative": (False, True),
        "envelope_size": (1024,),
        "block_size": (10,),
        "rate": (1100.0,),
        "duration": (6.0,),
    },
    smoke_matrix={
        "weights": (False, True),
        "tentative": (False, True),
        "envelope_size": (1024,),
        "block_size": (10,),
        "rate": (700.0,),
        "duration": (2.0,),
    },
    directions={"median_s": "lower", "p90_s": "lower"},
    tags=("ablation", "geo"),
    checks=(wheat_ablation,),
)
def ablation_wheat(ctx: BenchContext) -> Dict[str, float]:
    row = wheat_ablation_point(
        ctx["weights"],
        ctx["tentative"],
        envelope_size=ctx["envelope_size"],
        block_size=ctx["block_size"],
        rate=ctx["rate"],
        duration=ctx["duration"],
        seed=ctx.seed,
    )
    return {"median_s": row.median, "p90_s": row.p90}


@REGISTRY.register(
    name="ablation_batching",
    description="BFT-SMaRt batch-limit ablation: batching amortizes "
    "per-consensus vote traffic (capacity model).",
    matrix={
        "batch_limit": (1, 10, 50, 100, 400),
        "envelope_size": (40, 4096),
        "orderers": (4,),
        "block_size": (10,),
        "receivers": (2,),
    },
    smoke_matrix={
        "batch_limit": (1, 400),
        "envelope_size": (40,),
        "orderers": (4,),
        "block_size": (10,),
        "receivers": (2,),
    },
    directions={"tx_per_sec": "higher"},
    tags=("ablation", "lan"),
    checks=(batch_limit_ablation,),
)
def ablation_batching(ctx: BenchContext) -> Dict[str, float]:
    model = OrderingCapacityModel(n=ctx["orderers"], batch_limit=ctx["batch_limit"])
    return {
        "tx_per_sec": model.throughput(
            ctx["envelope_size"], ctx["block_size"], ctx["receivers"]
        )
    }


# ----------------------------------------------------------------------
# Baselines: solo and Kafka-CFT orderers vs the BFT service
# ----------------------------------------------------------------------
def _run_solo(envelopes: int, envelope_size: int, block_size: int):
    sim = Simulator()
    network = Network(sim, ConstantLatency(0.0001))
    registry = KeyRegistry(scheme=SimulatedECDSA())
    channel = ChannelConfig("ch0", max_message_count=block_size, batch_timeout=0.5)
    orderer = SoloOrderer(sim, network, "solo", registry.enroll("solo"), channel)
    network.register("solo", orderer)
    for _ in range(envelopes):
        orderer.submit(Envelope.raw("ch0", envelope_size))
    sim.run(until=5.0)
    latency = orderer.metrics.histogram("ordering.node.solo.latency")
    return latency.median, orderer.blocks_created


def _run_kafka(envelopes: int, envelope_size: int, block_size: int):
    sim = Simulator()
    network = Network(sim, ConstantLatency(0.0001))
    registry = KeyRegistry(scheme=SimulatedECDSA())
    channel = ChannelConfig("ch0", max_message_count=block_size, batch_timeout=0.5)
    cluster = KafkaCluster(sim, network, num_brokers=3)
    orderer = KafkaOrderer(
        sim, network, "korderer0", registry.enroll("korderer0"), cluster, channel
    )
    for _ in range(envelopes):
        orderer.submit(Envelope.raw("ch0", envelope_size))
    sim.run(until=5.0)
    latency = orderer.metrics.histogram("ordering.node.korderer0.latency")
    return latency.median, orderer.blocks_created


def _run_bft(envelopes: int, envelope_size: int, block_size: int):
    config = OrderingServiceConfig(
        f=1,
        channel=ChannelConfig(
            "ch0", max_message_count=block_size, batch_timeout=0.5
        ),
        physical_cores=None,
        latency=ConstantLatency(0.0001),
    )
    service = build_ordering_service(config)
    for _ in range(envelopes):
        service.submit(Envelope.raw("ch0", envelope_size))
    service.run(5.0)
    recorder = service.metrics.histogram(
        f"ordering.frontend.{service.frontends[0].name}.latency"
    )
    return recorder.median, service.nodes[0].blocks_created


_BASELINE_RUNNERS = {"solo": _run_solo, "kafka": _run_kafka, "bft": _run_bft}


def baseline_orderer_comparison(suite: SuiteResult) -> None:
    """§3: the BFT service pays a modest latency premium over solo and
    Kafka-CFT on a LAN; all three order everything."""
    result = suite.benchmark("baseline_orderers")

    envelopes = result.points[0].params["envelopes"]
    block = result.points[0].params["block_size"]
    expected_blocks = envelopes // block
    # all three order everything
    for point in result.points:
        assert point.metrics["blocks"].median == expected_blocks, point.params

    solo = result.value("median_latency_s", orderer="solo")
    kafka = result.value("median_latency_s", orderer="kafka")
    bft = result.value("median_latency_s", orderer="bft")
    # solo is fastest (no replication), BFT costs more than Kafka-CFT,
    # but all stay in the same order of magnitude on a LAN
    assert solo <= kafka
    assert kafka <= bft * 1.5
    assert bft < 0.05


# ----------------------------------------------------------------------
# Recovery: crash-amnesia restart over the consensus WAL
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="recovery_time",
    description="Crash-amnesia recovery: WAL replay time, rejoin "
    "latency and state-transfer volume for a replica restarting from "
    "its durable consensus log (see docs/RECOVERY.md).",
    matrix={
        "envelopes": (32, 96),
        "payload_size": (1024,),
        "block_size": (4,),
        "torn_tail": (0, 1),
    },
    smoke_matrix={
        "envelopes": (24,),
        "payload_size": (1024,),
        "block_size": (4,),
        "torn_tail": (1,),
    },
    directions={
        "replay_s": "lower",
        "rejoin_s": "lower",
        "recovery_total_s": "lower",
        "state_transfer_bytes": "lower",
        "replayed_batches": "higher",
        "delivered": "higher",
    },
    tags=("recovery", "wal", "faults"),
)
def recovery_time(ctx: BenchContext) -> Dict[str, float]:
    envelopes = ctx["envelopes"]
    config = OrderingServiceConfig(
        f=1,
        channel=ChannelConfig(
            "ch0", max_message_count=ctx["block_size"], batch_timeout=0.25
        ),
        num_frontends=1,
        physical_cores=None,
        enable_batch_timeout=True,
        durable_wal=True,
        seed=ctx.seed,
    )
    service = build_ordering_service(config, observability=ctx.obs)
    spacing = 1.5 / envelopes
    for i in range(envelopes):
        envelope = Envelope(
            channel_id="ch0",
            transaction=None,
            payload_size=ctx["payload_size"],
            envelope_id=i,
        )
        service.sim.schedule_at(0.1 + i * spacing, service.submit, envelope, 0)

    replica = service.replicas[1]
    streams = RandomStreams(ctx.seed)

    def crash() -> None:
        replica.crash(amnesia=True)
        replica.log.disk.crash(
            StorageFaults(torn_tail=bool(ctx["torn_tail"])),
            streams["bench-recovery-storage"],
        )

    service.sim.schedule_at(0.8, crash)
    service.sim.schedule_at(1.2, replica.recover)
    service.sim.run_until(
        lambda: service.total_delivered() >= envelopes, 60.0
    )
    # keep running until the restarted replica finishes its rejoin (its
    # state transfer may complete after the last client delivery)
    deadline = service.sim.now + 30.0
    service.sim.run_until(
        lambda: (replica.recovery_stats or {}).get("rejoined_at") is not None,
        deadline,
    )
    stats = replica.recovery_stats or {}
    rejoined_at = stats.get("rejoined_at")
    if rejoined_at is None:
        # no sentinel value: a "lower is better" -1 would read as a win
        raise RuntimeError(
            f"recovery_time: replica {replica.replica_id} did not rejoin by "
            f"simulated t={deadline:.3f}s"
        )
    replay_s = stats.get("replay_s", 0.0)
    total_s = rejoined_at - stats.get("started", 0.0)
    return {
        "replay_s": replay_s,
        "rejoin_s": total_s - replay_s,
        "recovery_total_s": total_s,
        "state_transfer_bytes": float(stats.get("state_transfer_bytes", 0)),
        "replayed_batches": float(stats.get("replayed_batches", 0)),
        "delivered": float(service.total_delivered()),
    }


@REGISTRY.register(
    name="baseline_orderers",
    description="§3 baselines: solo and Kafka-CFT orderers vs the BFT "
    "ordering service on the same LAN workload.",
    matrix={
        "orderer": ("solo", "kafka", "bft"),
        "envelopes": (2000,),
        "envelope_size": (1024,),
        "block_size": (10,),
    },
    smoke_matrix={
        "orderer": ("solo", "kafka", "bft"),
        "envelopes": (600,),
        "envelope_size": (1024,),
        "block_size": (10,),
    },
    directions={"median_latency_s": "lower", "blocks": "higher"},
    tags=("baselines", "lan"),
    checks=(baseline_orderer_comparison,),
)
def baseline_orderers(ctx: BenchContext) -> Dict[str, float]:
    runner = _BASELINE_RUNNERS[ctx["orderer"]]
    median, blocks = runner(
        ctx["envelopes"], ctx["envelope_size"], ctx["block_size"]
    )
    return {"median_latency_s": median, "blocks": float(blocks)}


# ----------------------------------------------------------------------
# Kernel fast path: simulated seconds per wall-clock second
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="kernel_speed",
    description="Simulator fast-path speed: simulated seconds per "
    "wall-clock second under the saturated Figure 7 LAN workload. "
    "Wall-clock metrics gate with a wide declared tolerance; "
    "events_processed is bit-deterministic and gates exactly.",
    matrix={
        "orderers": (4, 10),
        "duration": (0.4,),
        "warmup": (0.1,),
        "repeats": (3,),
    },
    smoke_matrix={
        "orderers": (4, 10),
        "duration": (0.3,),
        "warmup": (0.1,),
        "repeats": (2,),
    },
    seed_policy="fixed",
    directions={
        "sim_s_per_wall_s": "higher",
        "events_per_wall_s": "higher",
        # fewer kernel events for the same simulated workload = leaner
        # kernel; this count is exact, so any drift is a real change
        "events_processed": "lower",
        "events_per_sim_s": "lower",
    },
    tolerances={
        # real-time measurements: generous band so machine noise cannot
        # trip the gate, while an order-of-magnitude regression still
        # fails it (direction-aware: improvements never fail)
        "sim_s_per_wall_s": 0.60,
        "events_per_wall_s": 0.60,
    },
    tags=("kernel", "speed", "lan"),
)
def kernel_speed_bench(ctx: BenchContext) -> Dict[str, float]:
    result = kernel_speed(
        orderers=ctx["orderers"],
        duration=ctx["duration"],
        warmup=ctx["warmup"],
        seed=ctx.seed,
        repeats=ctx["repeats"],
    )
    return {
        "sim_s_per_wall_s": result.sim_seconds_per_wall_second,
        "events_per_wall_s": result.events_per_wall_second,
        "events_processed": float(result.events_processed),
        "events_per_sim_s": result.events_per_sim_second,
    }

# ----------------------------------------------------------------------
# Bake-off: all four ordering backends on one workload
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="bakeoff_orderers",
    description="Four-backend bake-off (solo / Kafka / BFT-SMaRt / "
    "SmartBFT) on one Figure-7-style workload, with dissemination "
    "bandwidth -- bytes on the wire from the ordering service to its "
    "delivery clients per committed block -- as the first-class "
    "metric (docs/SMARTBFT.md).",
    matrix={
        "orderer": ("solo", "kafka", "bftsmart", "smartbft"),
        # f sizes the BFT group (n = 3f+1); the CFT backends ignore it,
        # their rows document that the CFT cost does not scale with n
        "f": (1, 3),
        "envelopes": (96,),
        "envelope_size": (1024,),
        "block_size": (10,),
    },
    smoke_matrix={
        "orderer": ("solo", "kafka", "bftsmart", "smartbft"),
        "f": (1, 3),
        "envelopes": (40,),
        "envelope_size": (1024,),
        "block_size": (10,),
    },
    directions={
        "dissemination_bytes_per_block": "lower",
        "dissemination_bytes": "lower",
        "blocks": "higher",
    },
    tags=("bakeoff", "lan", "smartbft"),
)
def bakeoff_orderers(ctx: BenchContext) -> Dict[str, float]:
    from repro.ordering.backends import WorkloadSpec, run_backend_workload

    spec = WorkloadSpec(
        num_envelopes=ctx["envelopes"],
        payload_size=ctx["envelope_size"],
        block_size=ctx["block_size"],
        f=ctx["f"],
        seed=ctx.seed,
    )
    run = run_backend_workload(ctx["orderer"], spec)
    blocks = len(run.committed_blocks)
    return {
        "dissemination_bytes_per_block": (
            run.dissemination_bytes / blocks if blocks else 0.0
        ),
        "dissemination_bytes": float(run.dissemination_bytes),
        "blocks": float(blocks),
    }


# ----------------------------------------------------------------------
# Overload: goodput under open-loop pressure and adversarial floods
# ----------------------------------------------------------------------
def goodput_saturates_instead_of_collapsing(suite: SuiteResult) -> None:
    """Goodput at 4x the saturation load stays within 80% of the peak."""
    result = suite.benchmark("overload")
    for adversary in ("none", "duplicate-flood"):
        goodput = {
            point.params["load_multiplier"]: point.metrics["goodput_per_s"].median
            for point in result.points
            if point.params["adversary"] == adversary
        }
        peak = max(goodput.values())
        assert goodput[4.0] >= 0.8 * peak, (adversary, goodput)
        # below the knee the service keeps up with what is offered
        assert goodput[0.5] < goodput[4.0] * 1.2, (adversary, goodput)


def p99_admitted_latency_stays_bounded(suite: SuiteResult) -> None:
    """Backpressure sheds excess instead of queueing it."""
    result = suite.benchmark("overload")
    for point in result.points:
        assert point.metrics["p99_latency_s"].median < 1.0, point.params


def fairness_survives_duplicate_flood(suite: SuiteResult) -> None:
    """Jain fairness over the honest tenants stays >= 0.9, flood or not."""
    result = suite.benchmark("overload")
    for point in result.points:
        assert point.metrics["fairness"].median >= 0.9, point.params


def overload_sheds_explicitly(suite: SuiteResult) -> None:
    result = suite.benchmark("overload")
    for point in result.points:
        shed = point.metrics["shed_fraction"].median
        if point.params["load_multiplier"] >= 4.0:
            assert shed > 0.5, point.params
        assert shed < 1.0, point.params


@REGISTRY.register(
    name="overload",
    description="Open-loop overload sweep: per-tenant goodput, p99 "
    "admitted latency and Jain fairness vs offered load (multiples of "
    "the admission-controlled saturation rate), with and without a "
    "one-tenant duplicate flood.  Admission control must make goodput "
    "saturate instead of collapse (docs/WORKLOADS.md).",
    matrix={
        "load_multiplier": (0.5, 1.0, 2.0, 4.0),
        "adversary": ("none", "duplicate-flood"),
        "saturation_rate": (800.0,),
        "tenants": (4,),
        "duration": (2.0,),
        "block_size": (25,),
    },
    smoke_matrix={
        "load_multiplier": (0.5, 1.0, 4.0),
        "adversary": ("none", "duplicate-flood"),
        "saturation_rate": (400.0,),
        "tenants": (4,),
        "duration": (1.5,),
        "block_size": (25,),
    },
    directions={
        "goodput_per_s": "higher",
        "p99_latency_s": "lower",
        "fairness": "higher",
        "shed_fraction": "lower",
        "offered": "higher",
        "committed": "higher",
    },
    tags=("overload", "workload", "admission"),
    checks=(
        goodput_saturates_instead_of_collapsing,
        p99_admitted_latency_stays_bounded,
        fairness_survives_duplicate_flood,
        overload_sheds_explicitly,
    ),
)
def overload(ctx: BenchContext) -> Dict[str, float]:
    from repro.ordering import AdmissionConfig
    from repro.workload import DuplicateFlood, RawProfile, TenantSpec, WorkloadEngine

    num_tenants = ctx["tenants"]
    saturation = ctx["saturation_rate"]
    duration = ctx["duration"]
    share = saturation / num_tenants  # per-tenant fair share
    num_frontends = 2
    config = OrderingServiceConfig(
        f=1,
        channel=ChannelConfig(
            "ch0", max_message_count=ctx["block_size"], batch_timeout=0.05
        ),
        num_frontends=num_frontends,
        physical_cores=None,
        enable_batch_timeout=True,
        seed=ctx.seed,
        # per-tenant budget = the fair share; the window stays loose so
        # the token buckets, not the window, shape the steady state
        admission=AdmissionConfig(
            tenant_rate=share,
            tenant_burst=share * 0.25,
            max_in_flight=600,
        ),
    )
    service = build_ordering_service(config, observability=ctx.obs)
    # tenants are pinned to frontends so each tenant faces exactly one
    # token bucket (admission state is per frontend)
    tenants = [
        TenantSpec(
            name=f"tenant{i}",
            sessions=10_000,
            session_rate=share * ctx["load_multiplier"] / 10_000,
            arrival="poisson",
            profile=RawProfile(channel="ch0", envelope_size=512),
            frontend_index=i % num_frontends,
        )
        for i in range(num_tenants)
    ]
    if ctx["adversary"] == "duplicate-flood":
        tenants.append(
            TenantSpec(
                name="mallory",
                session_rate=2.0 * saturation,
                arrival="fixed",
                profile=DuplicateFlood(channel="ch0", envelope_size=512),
                frontend_index=0,
            )
        )
    engine = WorkloadEngine(
        service.sim,
        service.frontends,
        tenants,
        streams=RandomStreams(ctx.seed),
        duration=duration,
    )
    engine.start()
    service.run(duration + 1.5)  # drain the in-flight tail
    report = engine.report(honest_only_fairness=True)
    return {
        "goodput_per_s": report.committed / duration,
        "p99_latency_s": report.p99_latency_s,
        "fairness": report.fairness,
        "shed_fraction": report.shed_fraction,
        "offered": float(report.offered),
        "committed": float(report.committed),
    }
