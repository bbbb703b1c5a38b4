"""Pinned behaviour of the SmartBFT quorum frontend.

One seeded four-node scenario drives the three paths that set the
frontend apart from the BFT-SMaRt copy-matching frontend:

* the home node of frontend 1001 is crashed before any traffic, so its
  requests rotate to the next node (``resubmissions``) and its silent
  block subscription fails over (``failovers``);
* a block copy with forged signatures is rejected (``rejected_blocks``);
* block 1 reaches frontend 1001 before block 0 and is parked until the
  failover re-sync backfills its predecessor.

The exact counters, ledger digest and latency figures are pinned so a
refactor of the frontend cannot change behaviour unnoticed.
"""

import pytest

from repro.fabric.api import BlockDelivery
from repro.fabric.block import GENESIS_PREVIOUS_HASH, make_block
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.admission import AdmissionConfig
from repro.ordering.service import OrderingServiceConfig, build_ordering_service


def _pinned_scenario():
    config = OrderingServiceConfig(
        orderer="smartbft",
        f=1,
        channel=ChannelConfig(
            channel_id="ch0", max_message_count=4, batch_timeout=0.25
        ),
        num_frontends=2,
        physical_cores=None,
        request_timeout=0.5,
        seed=11,
    )
    service = build_ordering_service(config)
    front0, front1 = service.frontends
    service.crash_node(1)  # frontend 1001's home node

    # forward block 1 from frontend 1000 straight into frontend 1001,
    # which has not seen block 0 yet (its subscription node is down)
    source = service.nodes[0].name

    def forward_early(block):
        if block.header.number == 1:
            front1.deliver(0, BlockDelivery(block=block, source=source))

    front0.on_block.append(forward_early)

    forged = make_block(
        0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 64)], "ch0"
    )
    forged.signatures = {node.name: b"forged" for node in service.nodes}
    service.sim.schedule(
        0.05, front0.deliver, 0, BlockDelivery(block=forged, source=source)
    )

    total = 12
    for index in range(total):
        envelope = Envelope.raw("ch0", payload_size=200, submitter="client")
        envelope.envelope_id = index
        service.sim.schedule(0.01 + 0.01 * index, service.submit, envelope, index % 2)

    service.sim.run_until(
        lambda: all(
            sum(len(d) for d in fe.delivered_digests.values()) >= 3
            for fe in service.frontends
        ),
        deadline=30.0,
    )
    service.run(2.0)
    return service


def test_quorum_frontend_rotation_failover_forgery_and_reordering_pinned():
    service = _pinned_scenario()
    front0, front1 = service.frontends
    latency0 = service.metrics.histogram("ordering.frontend.1000.latency")
    latency1 = service.metrics.histogram("ordering.frontend.1001.latency")
    digest = "79edb7a2b5fb4ab143769f0db5f660270d03fa0a6714536b0c59bb7def16ed5b"
    assert {name: d.hex() for name, d in service.ledger_digests().items()} == {
        1000: digest,
        1001: digest,
    }
    assert (front0.resubmissions, front1.resubmissions) == (0, 6)
    assert (front0.failovers, front1.failovers) == (0, 1)
    assert (front0.rejected_blocks, front1.rejected_blocks) == (1, 0)
    assert (front0.blocks_delivered, front1.blocks_delivered) == (5, 5)
    assert (latency0.count, latency1.count) == (12, 12)
    assert latency0.mean == pytest.approx(0.512260008, abs=1e-9)
    assert latency1.mean == pytest.approx(0.705432896, abs=1e-9)
    assert service.total_delivered() == 12


# ----------------------------------------------------------------------
# a repeated envelope id (a client retrying at another orderer endpoint,
# or resubmitting through the same one) is ordered on every backend
# ----------------------------------------------------------------------
def _duplicate_service(orderer, admission=None):
    config = OrderingServiceConfig(
        orderer=orderer,
        f=1,
        channel=ChannelConfig(
            channel_id="ch0", max_message_count=2, batch_timeout=0.25
        ),
        num_frontends=2,
        physical_cores=None,
        request_timeout=0.5,
        admission=admission,
        seed=5,
    )
    return build_ordering_service(config)


def _submit_twice(service, frontends):
    for delay, frontend_index in zip((0.01, 0.02), frontends):
        envelope = Envelope.raw("ch0", payload_size=100, submitter="client")
        envelope.envelope_id = 0
        service.sim.schedule(delay, service.submit, envelope, frontend_index)


@pytest.mark.parametrize("orderer", ["bftsmart", "smartbft"])
@pytest.mark.parametrize(
    "frontends", [(0, 1), (0, 0)], ids=["two-frontends", "one-frontend"]
)
def test_repeated_envelope_id_is_ordered_twice(orderer, frontends):
    service = _duplicate_service(orderer)
    blocks = []
    service.frontends[0].on_block.append(blocks.append)
    _submit_twice(service, frontends)
    service.run(3.0)
    assert [[e.envelope_id for e in block.envelopes] for block in blocks] == [[0, 0]]
    digests = set(service.ledger_digests().values())
    assert len(digests) == 1


@pytest.mark.parametrize("orderer", ["bftsmart", "smartbft"])
@pytest.mark.parametrize(
    "frontends", [(0, 1), (0, 0)], ids=["two-frontends", "one-frontend"]
)
def test_repeated_envelope_id_leaves_nothing_outstanding(orderer, frontends):
    service = _duplicate_service(orderer, admission=AdmissionConfig())
    _submit_twice(service, frontends)
    service.run(3.0)
    assert service.total_delivered() == 2
    resubmissions = [getattr(fe, "resubmissions", 0) for fe in service.frontends]
    service.run(5.0)
    assert [getattr(fe, "resubmissions", 0) for fe in service.frontends] == (
        resubmissions
    )
    assert [fe.admission.in_flight for fe in service.frontends] == [0, 0]
