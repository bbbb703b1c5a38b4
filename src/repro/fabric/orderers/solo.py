"""The solo orderer: one process, no replication, no fault tolerance.

HLF ships this for development/testing (paper section 3: "a single
point of failure").  It shares the block cutter and signing pipeline
with the BFT ordering node, so throughput comparisons isolate the cost
of replication.
"""

from __future__ import annotations

from typing import List, Optional

from repro.crypto.keys import Identity
from repro.fabric.api import BlockDelivery, SubmitEnvelope
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockHeader, compute_data_hash
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope, OversizedPayloadError, check_payload_size
from repro.obs.registry import MetricsRegistry
from repro.ordering.blockcutter import BlockCutter
from repro.sim.core import Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.sim.network import Network


class SoloOrderer:
    """A single-node ordering service."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        identity: Identity,
        channel: ChannelConfig,
        cpu: Optional[CPU] = None,
        signing_workers: int = 16,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.identity = identity
        self.channel = channel
        self.cutter = BlockCutter(channel)
        self.cpu = cpu
        self.signing_pool = ThreadPool(cpu, signing_workers) if cpu else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.receivers: List[object] = []
        self.next_number = 0
        self.previous_hash = GENESIS_PREVIOUS_HASH
        self.blocks_created = 0
        self.crashed = False
        self._cut_timer = None

    def attach_receiver(self, receiver_id: object) -> None:
        if receiver_id not in self.receivers:
            self.receivers.append(receiver_id)

    def crash(self) -> None:
        """The single point of failure, failing."""
        self.crashed = True
        self.network.crash(self.name)

    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if self.crashed:
            return
        if isinstance(message, SubmitEnvelope):
            try:
                self.submit(message.envelope)
            except OversizedPayloadError:
                # dropped and counted, never raised into the event loop
                self.metrics.counter(f"ordering.node.{self.name}.rejected.oversized").increment()

    def submit(self, envelope: Envelope) -> None:
        """Order an envelope; one over the channel's AbsoluteMaxBytes
        raises :class:`~repro.fabric.envelope.OversizedPayloadError`."""
        if self.crashed:
            return
        check_payload_size(envelope.payload_ref(), self.channel.absolute_max_bytes)
        if envelope.create_time is None:
            envelope.create_time = self.sim.now
        batches = self.cutter.ordered(envelope)
        for batch in batches:
            self._create_block(batch)
        if not batches and len(self.cutter) > 0 and self._cut_timer is None:
            self._cut_timer = self.sim.schedule(
                self.channel.batch_timeout, self._timeout_cut
            )

    def _timeout_cut(self) -> None:
        self._cut_timer = None
        if len(self.cutter) > 0:
            self._create_block(self.cutter.cut())

    def _create_block(self, batch: List[Envelope]) -> None:
        if not batch:
            return
        header = BlockHeader(
            number=self.next_number,
            previous_hash=self.previous_hash,
            data_hash=compute_data_hash(batch),
        )
        self.next_number += 1
        self.previous_hash = header.digest()
        block = Block(
            header=header, envelopes=batch, channel_id=self.channel.channel_id
        )
        self.blocks_created += 1
        if self.signing_pool is not None:
            self.signing_pool.submit(
                self.identity.signer.sign_cost, self._sign_and_send, block
            )
        else:
            self._sign_and_send(block)

    def _sign_and_send(self, block: Block) -> None:
        block.signatures[self.name] = self.identity.sign(
            block.header.signing_payload()
        )
        delivery = BlockDelivery(block=block, source=self.name)
        self.network.broadcast(
            self.name, self.receivers, delivery, delivery.wire_size()
        )
        now = self.sim.now
        prefix = f"ordering.node.{self.name}"
        self.metrics.meter(f"{prefix}.envelopes").record(
            now, float(len(block.envelopes))
        )
        latency = self.metrics.histogram(f"{prefix}.latency")
        for envelope in block.envelopes:
            if envelope.create_time is not None:
                latency.record(now - envelope.create_time)
