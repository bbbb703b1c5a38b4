"""One metrics registry per deployment.

The always-on instruments (frontend block/envelope meters and latency
histograms, ordering-node meters) and the observability hub's counters
live in one :class:`~repro.obs.MetricsRegistry`: a deployment built with
a hub adopts the hub's registry as ``service.metrics``.  The meters'
totals are the delivered-block and envelope counts, so the hub keeps no
duplicate counters for them.
"""

import pytest

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.obs import Observability
from repro.ordering.backends import WorkloadSpec, run_backend_workload
from repro.ordering.service import OrderingServiceConfig, build_ordering_service

ENVELOPES = 20
BLOCK_SIZE = 4


@pytest.mark.parametrize("orderer", ["bftsmart", "smartbft"])
def test_hub_and_service_share_one_registry(orderer):
    obs = Observability()
    config = OrderingServiceConfig(
        orderer=orderer,
        channel=ChannelConfig("ch0", max_message_count=BLOCK_SIZE),
        num_frontends=2,
        physical_cores=None,
    )
    service = build_ordering_service(config, observability=obs)
    assert service.metrics is obs.registry

    frontend = service.frontends[0]
    seen = []
    frontend.on_block.append(lambda block: seen.append(len(block.envelopes)))
    for index in range(ENVELOPES):
        service.submit(Envelope.raw("ch0", 128), frontend_index=index % 2)
    service.run(3.0)

    metrics = service.metrics
    prefix = f"ordering.frontend.{frontend.name}"
    envelopes = metrics.meter(f"{prefix}.envelopes").total
    assert envelopes == service.total_delivered() == sum(seen) == ENVELOPES
    blocks = metrics.meter(f"{prefix}.blocks").total
    assert blocks == frontend.blocks_delivered == len(seen) == ENVELOPES // BLOCK_SIZE
    assert metrics.histogram(f"{prefix}.latency").count == ENVELOPES
    for node in service.nodes:
        assert metrics.meter(f"ordering.node.{node.name}.blocks").total == blocks
        assert metrics.meter(f"ordering.node.{node.name}.envelopes").total == envelopes

    # the meters' totals replace the hub's old duplicate counters
    for name in (
        f"{prefix}.blocks_matched",
        f"{prefix}.envelopes_delivered",
        f"ordering.node.{service.nodes[0].name}.blocks_signed",
    ):
        assert name not in metrics
    # ...while the hub's own instruments sit in the same tree
    assert metrics.counter(f"{prefix}.envelopes_submitted").value == ENVELOPES // 2


@pytest.mark.parametrize("backend", ["solo", "kafka"])
def test_cft_orderer_records_into_the_run_registry(backend):
    run = run_backend_workload(
        backend, WorkloadSpec(num_envelopes=ENVELOPES, block_size=BLOCK_SIZE)
    )
    assert run.finished
    metrics = run.service.metrics
    committed = len(run.committed_flat_ids)
    assert committed == ENVELOPES
    assert metrics.meter("ordering.node.orderer0.envelopes").total == committed
    assert metrics.histogram("ordering.node.orderer0.latency").count == committed


def test_leader_crash_records_regency_change():
    """A bftsmart leader crash under the hub fires the synchronization
    hooks: STOPs sent, the new regency installed and synced, and one
    closed ``sync r1`` span per surviving replica."""
    obs = Observability()
    config = OrderingServiceConfig(
        channel=ChannelConfig("ch0", max_message_count=BLOCK_SIZE, batch_timeout=0.2),
        num_frontends=1,
        physical_cores=None,
        request_timeout=0.4,
        enable_batch_timeout=True,
    )
    service = build_ordering_service(config, observability=obs)
    for _ in range(BLOCK_SIZE):
        service.submit(Envelope.raw("ch0", 128))
    service.run(1.0)
    leader = service.replicas[0].leader
    service.crash_node(leader)
    for _ in range(ENVELOPES - BLOCK_SIZE):
        service.submit(Envelope.raw("ch0", 128))
    service.run(10.0)
    assert service.total_delivered() == ENVELOPES

    metrics = service.metrics
    survivors = [r.replica_id for r in service.replicas if r.replica_id != leader]
    for replica in survivors:
        prefix = f"smart.replica.{replica}"
        assert metrics.counter(f"{prefix}.stops_sent").value >= 1
        assert metrics.counter(f"{prefix}.regency_installs").value >= 1
        assert metrics.counter(f"{prefix}.syncs_completed").value >= 1
    assert f"smart.replica.{leader}.syncs_completed" not in metrics
    spans = [s for s in obs.tracer.spans if s.category == "sync"]
    assert sorted(s.track for s in spans) == [f"replica.{r}" for r in survivors]
    assert all(s.name == "sync r1" and not s.open for s in spans)
