"""The frontend / BFT shim (paper sections 5 and 5.1).

Frontends are part of the *peer* trust domain.  Each frontend:

1. relays envelopes from HLF clients to the ordering cluster through a
   BFT-SMaRt :class:`~repro.smart.proxy.ServiceProxy`, using
   asynchronous invocations that never block on replies;
2. collects the signed blocks the ordering nodes push back and waits
   for ``2f+1`` matching copies (by header digest) before trusting a
   block -- frontends do not verify signatures, but 2f+1 matching
   copies guarantee at least ``f+1`` valid signatures for the peers
   downstream.  With ``verify_signatures=True`` the frontend checks
   signatures itself and ``f+1`` matching copies suffice (footnote 8);
3. relays trusted blocks to the committing peers attached to it and
   records per-envelope ordering latency (what Figures 8 and 9 plot).

Everything but the acceptance rule (step 2) and the transport (step 1)
lives in :class:`FrontendCore`, which the SmartBFT frontend
(:class:`repro.smart2.frontend.QuorumFrontend`) shares.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.crypto.keys import KeyRegistry
from repro.fabric.api import BlockDelivery, SubmitEnvelope
from repro.fabric.block import Block
from repro.fabric.envelope import Envelope, check_payload_size, payload_length
from repro.ordering.admission import AdmissionController, Rejected
from repro.sim.core import Simulator
from repro.sim.monitor import StatsRegistry
from repro.sim.network import Network
from repro.smart.proxy import ServiceProxy
from repro.smart.view import byzantine_majority_size, one_correct_size


class FrontendCore:
    """What every ordering-service frontend shares.

    The ingress gate (AbsoluteMaxBytes ceiling and admission control),
    the in-order release of accepted blocks, the admission-window
    bookkeeping and the delivery tail (peers, callbacks, stats, ledger
    digest).  A backend frontend adds its transport in ``submit`` and
    its acceptance rule in :meth:`_copy_valid` / :meth:`_accept_copy`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: object,
        f: int,
        registry: Optional[KeyRegistry],
        orderer_names: Set[str],
        stats: Optional[StatsRegistry],
        max_envelope_bytes: Optional[Union[int, Mapping[str, int]]],
        admission: Optional[AdmissionController],
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.f = f
        self.registry = registry
        self.orderer_names = orderer_names
        self.stats = stats or StatsRegistry()
        #: Fabric's AbsoluteMaxBytes ceiling -- one int for every
        #: channel or a per-channel mapping; None disables the check
        self.max_envelope_bytes = max_envelope_bytes
        #: opt-in backpressure (docs/WORKLOADS.md); None = relay all
        self.admission = admission
        #: envelope id -> admitted-but-uncommitted count (a duplicate
        #: flood admits one id many times; every admit holds a window
        #: slot) -- bounded by the admission window, O(in-flight)
        self._window_pending: Dict[int, int] = {}
        # instrument handles are resolved lazily on the first delivered
        # block (so registry contents match the uncached behaviour) and
        # then reused -- _record_stats runs once per block
        self._blocks_meter = None
        self._envelopes_meter = None
        self._latency_recorder = None
        self.peers: List[object] = []
        self.on_block: List[Callable[[Block], None]] = []
        self._next_expected: Dict[str, int] = {}
        #: accepted blocks waiting for their predecessors
        self._ready: Dict[str, Dict[int, Block]] = {}
        self.envelopes_submitted = 0
        self.blocks_delivered = 0
        #: invariant probe (repro.faults): per-channel header digests of
        #: every block delivered, in delivery order
        self.delivered_digests: Dict[str, List[bytes]] = {}
        #: optional repro.obs.Observability hub (attached externally)
        self.obs = None

    def attach_peer(self, peer_id: object) -> None:
        if peer_id not in self.peers:
            self.peers.append(peer_id)

    # ------------------------------------------------------------------
    # client side: the ingress gate every transport runs first
    # ------------------------------------------------------------------
    def _gate(self, envelope: Envelope) -> Optional[Rejected]:
        """Check one envelope at ingress; ``None`` means relay it.

        Without an admission controller an envelope over the channel's
        AbsoluteMaxBytes ceiling raises
        :class:`~repro.fabric.envelope.OversizedPayloadError` --
        identically for real-bytes payloads and zero-copy handles.
        With admission control every refusal (oversized, rate-limited,
        window-full) becomes an explicit :class:`Rejected` verdict.
        """
        admission = self.admission
        ceiling = self.max_envelope_bytes
        if ceiling is not None:
            if not isinstance(ceiling, int):
                ceiling = ceiling.get(envelope.channel_id)
            if ceiling is not None:
                if admission is None:
                    check_payload_size(envelope.payload_ref(), ceiling)
                elif payload_length(envelope.payload_ref()) > ceiling:
                    return self._reject(
                        envelope, admission.reject_oversized(envelope.submitter)
                    )
        if admission is not None:
            verdict = admission.admit(envelope.submitter, self.sim.now)
            if verdict is not None:
                return self._reject(envelope, verdict)
            self._window_pending[envelope.envelope_id] = (
                self._window_pending.get(envelope.envelope_id, 0) + 1
            )
        if envelope.create_time is None:
            envelope.create_time = self.sim.now
        self.envelopes_submitted += 1
        if self.obs is not None:
            self.obs.on_submit(self.name, envelope, self.sim.now)
        return None

    def _reject(self, envelope: Envelope, verdict: Rejected) -> Rejected:
        if self.obs is not None:
            self.obs.on_reject(
                self.name, envelope.submitter, verdict.reason, self.sim.now
            )
        return verdict

    # ------------------------------------------------------------------
    # delivery side: acceptance hooks, in-order release, delivery tail
    # ------------------------------------------------------------------
    def _on_block_copy(self, source: str, block: Block) -> None:
        if self.orderer_names and source not in self.orderer_names:
            return
        if not self._copy_valid(source, block):
            return
        channel = block.channel_id
        number = block.header.number
        if self.obs is not None:
            self.obs.on_block_copy(self.name, channel, number, self.sim.now)
        if number < self._next_expected.get(channel, 0):
            return  # already delivered
        accepted = self._accept_copy(source, block)
        if accepted is None:
            return
        # a block ahead of a predecessor (dropped in flight, or still
        # short of matching copies) waits here until the gap fills
        ready = self._ready.setdefault(channel, {})
        ready[number] = accepted
        while self._next_expected.get(channel, 0) in ready:
            next_number = self._next_expected.get(channel, 0)
            accepted = ready.pop(next_number)
            self._next_expected[channel] = next_number + 1
            self._deliver_block(accepted)

    def _copy_valid(self, source: str, block: Block) -> bool:
        """May this copy count at all? (checked before the obs hook)"""
        raise NotImplementedError

    def _accept_copy(self, source: str, block: Block) -> Optional[Block]:
        """The block to release once its predecessors are delivered,
        or ``None`` while the acceptance rule is not yet met (default:
        every valid copy is the block itself)."""
        return block

    def _on_delivered(self, block: Block) -> None:
        """Backend bookkeeping for a block about to be delivered."""

    def _deliver_block(self, block: Block) -> None:
        self._on_delivered(block)
        if self.admission is not None and self._window_pending:
            freed = 0
            for envelope in block.envelopes:
                freed += self._window_pending.pop(envelope.envelope_id, 0)
            if freed:
                self.admission.release(freed)
        self.blocks_delivered += 1
        if self.obs is not None:
            self.obs.on_block_delivered(self.name, block, self.sim.now)
        self.delivered_digests.setdefault(block.channel_id, []).append(
            block.header.digest()
        )
        self._record_stats(block)
        delivery = BlockDelivery(block=block, source=self.name)
        self.network.broadcast(self.name, self.peers, delivery, delivery.wire_size())
        for callback in self.on_block:
            callback(block)

    def ledger_digest(self, channel: Optional[str] = None) -> bytes:
        """Running hash over the delivered block-digest chain.

        Two frontends that delivered the same blocks in the same order
        have equal digests, on either backend -- the agreement
        invariant checked by :mod:`repro.faults.invariants`.
        """
        from repro.crypto.hashing import sha256

        channels = (
            [channel] if channel is not None else sorted(self.delivered_digests)
        )
        acc = b""
        for name in channels:
            for digest in self.delivered_digests.get(name, []):
                acc = sha256("ledger", acc, name, digest)
        return acc

    def _record_stats(self, block: Block) -> None:
        now = self.sim.now
        blocks = self._blocks_meter
        if blocks is None:
            blocks = self._blocks_meter = self.stats.meter(f"{self.name}.blocks")
            self._envelopes_meter = self.stats.meter(f"{self.name}.envelopes")
            self._latency_recorder = self.stats.latency(f"{self.name}.latency")
        blocks.record(now, 1.0)
        self._envelopes_meter.record(now, float(len(block.envelopes)))
        latency = self._latency_recorder
        for envelope in block.envelopes:
            if envelope.create_time is not None:
                latency.record(now - envelope.create_time)


class Frontend(FrontendCore):
    """One frontend of the paper's BFT-SMaRt ordering service."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        proxy: ServiceProxy,
        f: int,
        registry: Optional[KeyRegistry] = None,
        orderer_names: Optional[Set[str]] = None,
        verify_signatures: bool = False,
        stats: Optional[StatsRegistry] = None,
        max_envelope_bytes: Optional[Union[int, Mapping[str, int]]] = None,
        admission: Optional[AdmissionController] = None,
    ):
        super().__init__(
            sim,
            network,
            name,
            f,
            registry,
            orderer_names or set(),
            stats,
            max_envelope_bytes,
            admission,
        )
        self.proxy = proxy
        self.verify_signatures = verify_signatures
        #: (channel, number) -> header digest -> sender -> copy
        self._collectors: Dict[Tuple[str, int], Dict[bytes, Dict[str, Block]]] = {}

    @property
    def matching_copies_needed(self) -> int:
        """2f+1 without signature verification, f+1 with (footnote 8)."""
        if self.verify_signatures:
            return one_correct_size(self.f)
        return byzantine_majority_size(self.f)

    def submit(self, envelope: Envelope) -> Optional[Rejected]:
        """Relay an envelope to the ordering cluster (fire-and-forget).

        Returns ``None`` once the envelope is relayed, or the
        :class:`Rejected` verdict of the admission controller; see
        :meth:`FrontendCore._gate` for the oversized-payload contract.
        """
        verdict = self._gate(envelope)
        if verdict is None:
            self.proxy.invoke_async(envelope, size_bytes=envelope.payload_size)
        return verdict

    def deliver(self, src, message) -> None:
        if isinstance(message, SubmitEnvelope):
            self.submit(message.envelope)
        elif isinstance(message, BlockDelivery):
            self._on_block_copy(message.source, message.block)
        else:
            # anything else (e.g. BFT-SMaRt replies when the deployment
            # keeps them on) belongs to the embedded proxy
            self.proxy.deliver(src, message)

    # ------------------------------------------------------------------
    # acceptance rule: 2f+1 (or f+1 verified) matching copies, merged
    # ------------------------------------------------------------------
    def _copy_valid(self, source: str, block: Block) -> bool:
        if not self.verify_signatures:
            return True
        if self.registry is None or source not in self.registry:
            return False
        signature = block.signatures.get(source)
        if signature is None:
            return False
        verifier = self.registry.verifier_of(source)
        return verifier.verify(block.header.signing_payload(), signature)

    def _accept_copy(self, source: str, block: Block) -> Optional[Block]:
        """Count the copy; once enough match, merge their signatures
        (so peers get at least f+1 valid ones)."""
        key = (block.channel_id, block.header.number)
        copies = self._collectors.setdefault(key, {}).setdefault(
            block.header.digest(), {}
        )
        copies[source] = block
        if len(copies) < self.matching_copies_needed:
            return None
        del self._collectors[key]
        ordered = [copy for _, copy in sorted(copies.items())]
        signatures: Dict[str, bytes] = {}
        for copy in ordered:
            signatures.update(copy.signatures)
        first = ordered[0]
        return Block(
            header=first.header,
            envelopes=first.envelopes,
            signatures=signatures,
            channel_id=first.channel_id,
        )
