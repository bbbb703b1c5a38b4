"""One harness, four ordering backends (solo / Kafka / BFT-SMaRt / SmartBFT).

Runs the *same* seeded workload -- pinned envelope ids, identical
channel configuration, identical cutting parameters -- through any of
the repository's ordering services and commits the output through the
same :class:`~repro.fabric.committer.CommittingPeer`, armed with the
backend's block-validity policy.  Because raw envelopes hash by their
pinned ids and all backends share the :class:`BlockCutter`, a correct
run produces the *byte-identical* block header chain on every backend,
which is what the conformance battery
(``tests/test_orderer_conformance.py``) asserts.

The harness also accounts **dissemination bandwidth**: bytes on the
wire from the ordering service to its delivery clients (the frontend
for the BFT backends, the committing peer for the CFT ones), the
backend-differentiating cost the SmartBFT design attacks -- ``n`` full
block copies under BFT-SMaRt copy-matching versus one copy carrying a
``2f+1`` signature quorum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.block import Block
from repro.fabric.blockpolicy import (
    AcceptAllBlocks,
    BlockValidityPolicy,
    SignatureCountPolicy,
    SignatureQuorumPolicy,
)
from repro.fabric.channel import ChannelConfig
from repro.fabric.committer import CommittingPeer
from repro.fabric.envelope import Envelope, OversizedPayloadError, check_payload_size
from repro.fabric.orderers.kafka import KafkaCluster, KafkaOrderer
from repro.fabric.orderers.solo import SoloOrderer
from repro.ordering.service import (
    FRONTEND_ID_BASE,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.sim.core import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.randomness import RandomStreams
from repro.smart.view import one_correct_size

#: every ordering backend the repository implements
BACKENDS = ("solo", "kafka", "bftsmart", "smartbft")

#: network id of the harness's committing peer
PEER_NAME = "peer0"


@dataclass
class WorkloadSpec:
    """The seeded workload every backend replays identically."""

    num_envelopes: int = 24
    payload_size: int = 256
    block_size: int = 4
    preferred_max_bytes: int = 512 * 1024
    absolute_max_bytes: int = 1024 * 1024
    batch_timeout: float = 0.25
    inter_arrival: float = 0.005
    #: envelope indices submitted with an oversized payload (they must
    #: be rejected at ingress by every backend)
    oversized_at: Sequence[int] = ()
    f: int = 1
    delta: int = 0
    seed: int = 0
    request_timeout: float = 0.5
    deadline: float = 60.0
    settle: float = 1.0
    channel_id: str = "ch0"

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            channel_id=self.channel_id,
            max_message_count=self.block_size,
            preferred_max_bytes=self.preferred_max_bytes,
            absolute_max_bytes=self.absolute_max_bytes,
            batch_timeout=self.batch_timeout,
        )

    def make_envelope(self, index: int) -> Envelope:
        size = self.payload_size
        if index in set(self.oversized_at):
            size = self.absolute_max_bytes + 1
        envelope = Envelope.raw(
            self.channel_id, payload_size=size, submitter="client"
        )
        envelope.envelope_id = index  # pinned: identical digests everywhere
        return envelope


@dataclass
class BackendRun:
    """What one backend produced for a :class:`WorkloadSpec`."""

    backend: str
    spec: WorkloadSpec
    peer: CommittingPeer
    submitted: int
    rejected_at_ingress: int
    dissemination_bytes: int
    finished: bool
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def committed_blocks(self) -> List[Block]:
        return [record.block for record in self.peer.commits]

    @property
    def header_digests(self) -> List[bytes]:
        return [block.header.digest() for block in self.committed_blocks]

    @property
    def committed_envelope_ids(self) -> List[Tuple[int, ...]]:
        return [
            tuple(envelope.envelope_id for envelope in block.envelopes)
            for block in self.committed_blocks
        ]

    @property
    def committed_flat_ids(self) -> List[int]:
        return [eid for block in self.committed_envelope_ids for eid in block]


def policy_for_backend(
    backend: str,
    f: int,
    registry: Optional[KeyRegistry],
    orderer_names: Optional[set] = None,
) -> BlockValidityPolicy:
    """The committer-side block-validity policy each backend warrants."""
    if backend in ("solo", "kafka"):
        return AcceptAllBlocks()
    if backend == "bftsmart":
        # frontends matched 2f+1 copies upstream; f+1 valid signatures
        # prove a correct node vouched for the merged block
        return SignatureCountPolicy(
            one_correct_size(f), registry=registry, orderer_names=orderer_names
        )
    if backend == "smartbft":
        return SignatureQuorumPolicy(
            f, registry=registry, orderer_names=orderer_names
        )
    raise ValueError(f"unknown backend {backend!r}")


def run_backend_workload(backend: str, spec: Optional[WorkloadSpec] = None) -> BackendRun:
    """Replay ``spec`` through ``backend`` and commit via one peer."""
    spec = spec or WorkloadSpec()
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend in ("solo", "kafka"):
        return _run_cft(backend, spec)
    return _run_bft(backend, spec)


def _expected_committed(spec: WorkloadSpec) -> int:
    return spec.num_envelopes - len(set(spec.oversized_at))


# ----------------------------------------------------------------------
# solo / Kafka (crash-fault backends)
# ----------------------------------------------------------------------
def _run_cft(backend: str, spec: WorkloadSpec) -> BackendRun:
    sim = Simulator()
    streams = RandomStreams(spec.seed)
    network = Network(
        sim, ConstantLatency(0.0001), default_bandwidth_bps=1e9, streams=streams
    )
    registry = KeyRegistry(scheme=SimulatedECDSA(), rng=streams.stream("keys"))
    identity = registry.enroll("orderer0", org="ordererorg0")
    channel = spec.channel_config()

    extras: Dict[str, Any] = {}
    if backend == "solo":
        orderer = SoloOrderer(
            sim, network, "orderer0", identity, channel, cpu=None
        )
        network.register("orderer0", orderer)
    else:
        cluster = KafkaCluster(sim, network, num_brokers=3)
        orderer = KafkaOrderer(
            sim, network, "orderer0", identity, cluster, channel,
            cpu=None,
        )
        extras["cluster"] = cluster
    extras["metrics"] = orderer.metrics

    peer = CommittingPeer(
        sim,
        network,
        PEER_NAME,
        channel,
        registry=registry,
        orderer_names={"orderer0"},
        block_policy=policy_for_backend(backend, spec.f, registry, {"orderer0"}),
    )
    network.register(PEER_NAME, peer)
    orderer.attach_receiver(PEER_NAME)

    rejected = 0

    def _submit(index: int) -> None:
        nonlocal rejected
        envelope = spec.make_envelope(index)
        # same AbsoluteMaxBytes ingress gate the BFT frontends apply
        try:
            check_payload_size(envelope.payload_ref(), spec.absolute_max_bytes)
        except OversizedPayloadError:
            rejected += 1
            return
        orderer.submit(envelope)

    for index in range(spec.num_envelopes):
        sim.schedule(0.001 + index * spec.inter_arrival, _submit, index)

    expected = _expected_committed(spec)

    def _done() -> bool:
        return sum(len(r.block.envelopes) for r in peer.commits) >= expected

    finished = sim.run_until(_done, deadline=spec.deadline)
    sim.run(until=sim.now + spec.settle)

    dissemination = int(
        network.stats.bytes_by_src.get("orderer0", {}).get(PEER_NAME, 0)
    )
    return BackendRun(
        backend=backend,
        spec=spec,
        peer=peer,
        submitted=spec.num_envelopes - rejected,
        rejected_at_ingress=rejected,
        dissemination_bytes=dissemination,
        finished=finished,
        extras=extras,
    )


# ----------------------------------------------------------------------
# BFT-SMaRt / SmartBFT (Byzantine backends, shared deployment builder)
# ----------------------------------------------------------------------
def _run_bft(backend: str, spec: WorkloadSpec) -> BackendRun:
    config = OrderingServiceConfig(
        orderer=backend,
        f=spec.f,
        delta=spec.delta,
        channel=spec.channel_config(),
        num_frontends=1,
        physical_cores=None,
        request_timeout=spec.request_timeout,
        enable_batch_timeout=True,
        seed=spec.seed,
    )
    service = build_ordering_service(config)
    orderer_names = {f"orderer{i}" for i in range(config.n)}
    peer = CommittingPeer(
        service.sim,
        service.network,
        PEER_NAME,
        spec.channel_config(),
        registry=service.registry,
        orderer_names=orderer_names,
        block_policy=policy_for_backend(
            backend, spec.f, service.registry, orderer_names
        ),
    )
    service.network.register(PEER_NAME, peer)
    service.frontends[0].attach_peer(PEER_NAME)

    rejected = 0

    def _submit(index: int) -> None:
        nonlocal rejected
        envelope = spec.make_envelope(index)
        try:
            service.submit(envelope, frontend_index=0)
        except OversizedPayloadError:
            rejected += 1

    for index in range(spec.num_envelopes):
        service.sim.schedule(0.001 + index * spec.inter_arrival, _submit, index)

    expected = _expected_committed(spec)

    def _done() -> bool:
        return sum(len(r.block.envelopes) for r in peer.commits) >= expected

    finished = service.sim.run_until(_done, deadline=spec.deadline)
    service.run(spec.settle)

    by_src = service.network.stats.bytes_by_src
    dissemination = int(
        sum(
            by_src.get(i, {}).get(FRONTEND_ID_BASE, 0)
            for i in range(config.n)
        )
    )
    return BackendRun(
        backend=backend,
        spec=spec,
        peer=peer,
        submitted=spec.num_envelopes - rejected,
        rejected_at_ingress=rejected,
        dissemination_bytes=dissemination,
        finished=finished,
        extras={"service": service},
    )
