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

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.fabric.block import Block
from repro.fabric.channel import ChannelConfig
from repro.fabric.committer import CommittingPeer
from repro.fabric.envelope import Envelope, OversizedPayloadError
from repro.ordering.service import (
    BFTService,
    CFTService,
    OrderingServiceConfig,
    build_ordering_service,
)

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
    #: the deployment the workload ran on (registry, metrics, nodes)
    service: Union[BFTService, CFTService]

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


def run_backend_workload(backend: str, spec: Optional[WorkloadSpec] = None) -> BackendRun:
    """Replay ``spec`` through ``backend`` and commit via one peer."""
    spec = spec or WorkloadSpec()
    service = build_ordering_service(
        OrderingServiceConfig(
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
    )
    peer = CommittingPeer(
        service.sim,
        service.network,
        PEER_NAME,
        spec.channel_config(),
        registry=service.registry,
        orderer_names=service.orderer_names,
        block_policy=service.block_policy(),
    )
    service.attach_peer(peer)

    rejected = 0

    def _submit(index: int) -> None:
        nonlocal rejected
        try:
            service.submit(spec.make_envelope(index))
        except OversizedPayloadError:
            rejected += 1

    for index in range(spec.num_envelopes):
        service.sim.schedule(0.001 + index * spec.inter_arrival, _submit, index)

    expected = spec.num_envelopes - len(set(spec.oversized_at))

    def _done() -> bool:
        return sum(len(r.block.envelopes) for r in peer.commits) >= expected

    finished = service.sim.run_until(_done, deadline=spec.deadline)
    service.run(spec.settle)
    return BackendRun(
        backend=backend,
        spec=spec,
        peer=peer,
        submitted=spec.num_envelopes - rejected,
        rejected_at_ingress=rejected,
        dissemination_bytes=service.dissemination_bytes(),
        finished=finished,
        service=service,
    )
