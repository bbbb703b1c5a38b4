"""The SmartBFT frontend: single signed copies instead of copy matching.

Where the BFT-SMaRt frontend (:class:`repro.ordering.frontend.Frontend`)
waits for ``2f+1`` matching block *copies*, this frontend subscribes to
ONE ordering node and trusts a delivered block iff it carries a valid
``2f+1`` signature quorum -- the block's own metadata proves consensus,
so dissemination bandwidth drops from ``n`` full copies to one copy
plus ``2f+1`` signatures (the bake-off in ``docs/SMARTBFT.md``
quantifies this).

Liveness against a crashed or censoring node comes from rotation: an
envelope not committed within ``request_timeout`` is resubmitted to the
next node, and a subscription that stops delivering while work is
outstanding fails over to the next node (re-synchronising through the
consensus sequence number).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.crypto.keys import KeyRegistry
from repro.fabric.api import BlockDelivery, SubmitEnvelope
from repro.fabric.block import Block
from repro.fabric.envelope import Envelope, OversizedPayloadError
from repro.obs.registry import MetricsRegistry
from repro.ordering.admission import OVERSIZED, AdmissionController, Rejected
from repro.ordering.frontend import FrontendCore
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.smart.messages import ClientRequest
from repro.smart.view import View
from repro.smart2.messages import Subscribe


class QuorumFrontend(FrontendCore):
    """One frontend of the SmartBFT-style ordering service."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: int,
        view: View,
        registry: Optional[KeyRegistry] = None,
        node_names: Optional[Dict[int, str]] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_envelope_bytes: Optional[Union[int, Mapping[str, int]]] = None,
        request_timeout: float = 2.0,
        admission: Optional[AdmissionController] = None,
    ):
        #: ordering node id -> enrolled identity name
        self.node_names = dict(node_names or {})
        super().__init__(
            sim,
            network,
            name,
            view.f,
            registry,
            set(self.node_names.values()),
            metrics,
            max_envelope_bytes,
            admission,
        )
        self.view = view
        self._id_by_name = {v: k for k, v in self.node_names.items()}
        self.request_timeout = request_timeout

        self._nodes = list(view.processes)
        self._home = self._nodes[self.name % len(self._nodes)]
        self._subscribed_index = self._nodes.index(self._home)

        self._sequence = 0
        #: rid -> (request, submitted_at, rotation offset)
        self._outstanding: Dict[Tuple[int, int], Tuple[ClientRequest, float, int]] = {}
        #: envelope id -> every outstanding request carrying it
        self._rids_by_env: Dict[int, List[Tuple[int, int]]] = {}
        self._delivered_count = 0
        self._last_delivery = 0.0
        self._timer_armed = False

        self.rejected_blocks = 0
        self.resubmissions = 0
        self.failovers = 0

    def start(self) -> None:
        """Open the block subscription (call after network registration)."""
        subscribe = Subscribe(sender=self.name, next_seq=self._delivered_count)
        self.network.send(
            self.name,
            self._nodes[self._subscribed_index],
            subscribe,
            subscribe.wire_size(),
        )

    # ------------------------------------------------------------------
    # transport: direct requests, rotated on timeout
    # ------------------------------------------------------------------
    def submit(self, envelope: Envelope) -> Optional[Rejected]:
        """Send an envelope to the ordering cluster (fire-and-forget).

        Same contract as the BFT-SMaRt frontend: ``None`` once sent,
        else the admission controller's :class:`Rejected` verdict (see
        :meth:`~repro.ordering.frontend.FrontendCore._gate`).
        """
        verdict = self._gate(envelope)
        if verdict is not None:
            return verdict
        request = ClientRequest(
            client_id=self.name,
            sequence=self._sequence,
            operation=envelope,
            size_bytes=envelope.payload_size,
            submit_time=self.sim.now,
        )
        self._sequence += 1
        self._outstanding[request.request_id] = (request, self.sim.now, 0)
        self._rids_by_env.setdefault(envelope.envelope_id, []).append(
            request.request_id
        )
        self.network.send(self.name, self._home, request, request.wire_size())
        self._arm_timer()
        return None

    def _arm_timer(self) -> None:
        if self._timer_armed:
            return
        self._timer_armed = True
        self.sim.schedule(self.request_timeout, self._retry_tick)

    def _retry_tick(self) -> None:
        self._timer_armed = False
        if not self._outstanding:
            return
        now = self.sim.now
        n = len(self._nodes)
        for rid in sorted(self._outstanding):
            request, submitted_at, offset = self._outstanding[rid]
            if now - submitted_at < self.request_timeout:
                continue
            # rotate: a crashed or censoring node never commits it, the
            # next one forwards it to whichever leader is current
            offset += 1
            target = self._nodes[(self._nodes.index(self._home) + offset) % n]
            self._outstanding[rid] = (request, now, offset)
            self.resubmissions += 1
            self.network.send(self.name, target, request, request.wire_size())
        if now - self._last_delivery > self.request_timeout:
            # the subscription went quiet while work is outstanding:
            # fail over to the next node and re-sync by sequence
            self._subscribed_index = (self._subscribed_index + 1) % n
            self.failovers += 1
            subscribe = Subscribe(sender=self.name, next_seq=self._delivered_count)
            self.network.send(
                self.name,
                self._nodes[self._subscribed_index],
                subscribe,
                subscribe.wire_size(),
            )
        self._arm_timer()

    def deliver(self, src, message) -> None:
        if isinstance(message, SubmitEnvelope):
            try:
                self.submit(message.envelope)
            except OversizedPayloadError:
                # refused explicitly (the obs hub counts it), never
                # raised into the event loop
                self._reject(message.envelope, OVERSIZED)
        elif isinstance(message, BlockDelivery):
            self._on_block_copy(message.source, message.block)

    # ------------------------------------------------------------------
    # acceptance rule: one copy carrying a verified 2f+1 quorum
    # ------------------------------------------------------------------
    def _copy_valid(self, source: str, block: Block) -> bool:
        """Does the block carry a valid Byzantine-majority quorum?"""
        if self.registry is not None:
            payload = block.header.signing_payload()
            signers = set()
            for name, signature in sorted(block.signatures.items()):
                node_id = self._id_by_name.get(name)
                if node_id is None or name not in self.registry:
                    continue
                if self.registry.verifier_of(name).verify(payload, signature):
                    signers.add(node_id)
            if self.view.has_quorum(signers):
                return True
        self.rejected_blocks += 1
        return False

    def _on_delivered(self, block: Block) -> None:
        self._delivered_count += 1
        self._last_delivery = self.sim.now
        # stop retrying every request that carried a committed envelope
        # id (one id may ride several requests)
        for envelope in block.envelopes:
            for rid in self._rids_by_env.pop(envelope.envelope_id, ()):
                self._outstanding.pop(rid, None)
