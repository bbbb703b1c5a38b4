"""Analytic capacity model of the ordering service (Equation 1 and §6).

The paper bounds ordering throughput by

    TP_os <= min(TP_sign * bs,  TP_bftsmart(bs, es, r))        (Eq. 1)

This module makes every term concrete for the paper's testbed (Dell
PowerEdge R410: two quad-core 2.27 GHz Xeon E5520 with HT = 8 physical
cores / 16 hardware threads, Gigabit Ethernet) and decomposes
``TP_bftsmart`` into the resource bounds the evaluation discusses:

- **signing CPU** -- one ECDSA signature costs ``SIGN_COST`` core-
  seconds; 16 workers on 8 HT cores yield ~8.4 k sig/s (Figure 6);
- **replication protocol CPU** -- BFT-SMaRt's per-request processing
  (Java serialization, MACs, queues).  The paper reports BFT-SMaRt
  alone takes up to 60 % of the machine for a void service, which at
  its ~80-90 k req/s small-message peak gives ~75 us of core time per
  request; both effects emerge from one shared core budget;
- **block dissemination** -- each node transmits every block to all
  ``r`` receivers (a per-copy CPU cost plus egress bandwidth), which
  is what bends the curves of Figure 7 downward as receivers grow;
- **leader egress bandwidth** -- the PROPOSE carries each envelope to
  the other ``n-1`` replicas.

All constants are calibrated once, documented here, and asserted
against the paper's headline numbers by the benchmark suite.  We
reproduce *shapes* (who wins, where curves cross and flatten), not the
testbed's exact figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

# ----------------------------------------------------------------------
# calibration constants (the paper's hardware)
# ----------------------------------------------------------------------

#: Physical cores / hardware threads of the Dell R410.
PHYSICAL_CORES = 8
HARDWARE_THREADS = 16

#: Total speed of one core running two hyper-threads (vs 1.0 for one).
HT_YIELD = 1.3

#: Core-seconds per ECDSA P-256 signature, fitted so that 16 workers
#: produce ~8,400 signatures/second (Figure 6's peak).
SIGN_COST = (PHYSICAL_CORES * HT_YIELD) / 8400.0  # ~1.238 ms

#: Core-seconds of replication-protocol work per ordered request
#: (fixed part) and per payload byte.  Fitted to BFT-SMaRt's reported
#: small-message peak (~90-120 k req/s on this class of machine) and
#: to its "60% CPU for a void service" footprint (paper §6.2).
ORDER_COST_FIXED = 70e-6
ORDER_COST_PER_BYTE = 8e-9

#: Core-seconds to serialize/push one block copy to one receiver, plus
#: the per-byte share.  Fitted to the receiver-count degradation in
#: Figure 7 (a 2009-era Xeon spending ~0.15 ms per Java-serialized
#: block transmission makes 32 receivers cost ~5 ms of CPU per block,
#: which is what bends the small-envelope curves down).
BLOCK_COPY_COST = 150e-6
BLOCK_COPY_COST_PER_BYTE = 3e-9

#: Effective leader egress available to PROPOSE traffic, bits/second.
#: Fitted to BFT-SMaRt's measured large-request throughput (~4.5-6 k
#: req/s at 4 KB with n=4 [4]; ~2.2 k at n=10 -- the paper's floor).
ORDERING_BANDWIDTH = 0.6e9

#: Effective egress for block dissemination, bits/second.  The paper's
#: own floor (2,200 tx/s of 4 KB envelopes to 32 receivers = 2.3 Gb/s
#: leaving each node) implies more than one Gigabit NIC's worth of
#: effective egress (full-duplex + switched fan-out); we use 2.4 Gb/s.
DISSEMINATION_BANDWIDTH = 2.4e9

#: Core-seconds to process one WRITE/ACCEPT vote (MAC + dispatch) and
#: the fixed per-PROPOSE cost; amortized over the consensus batch.
VOTE_COST = 20e-6
PROPOSE_FIXED_COST = 50e-6

#: Wire overhead added to each envelope (request framing, §5 messages).
ENVELOPE_WIRE_OVERHEAD = 100

#: Block header + per-envelope framing bytes.
BLOCK_HEADER_BYTES = 152
ENVELOPE_FRAMING_BYTES = 8

#: The paper's BFT-SMaRt batch limit.
BATCH_LIMIT = 400


def cpu_capacity(workers: int, physical: int = PHYSICAL_CORES,
                 threads: int = HARDWARE_THREADS, ht_yield: float = HT_YIELD) -> float:
    """Aggregate core-equivalents delivered by ``workers`` busy threads."""
    active = min(workers, threads)
    base = min(active, physical)
    doubled = max(0, active - physical)
    return base + doubled * (ht_yield - 1.0)


@dataclass
class SignatureThroughputModel:
    """Figure 6: ECDSA signatures/second vs. signing worker threads."""

    physical_cores: int = PHYSICAL_CORES
    hardware_threads: int = HARDWARE_THREADS
    ht_yield: float = HT_YIELD
    sign_cost: float = SIGN_COST

    def throughput(self, workers: int) -> float:
        if workers < 1:
            raise ValueError("need at least one worker")
        capacity = cpu_capacity(
            workers, self.physical_cores, self.hardware_threads, self.ht_yield
        )
        return capacity / self.sign_cost

    @property
    def peak(self) -> float:
        return self.throughput(self.hardware_threads)


@dataclass
class ThroughputBreakdown:
    """Every bound (tx/s) and the resulting prediction."""

    bounds: Dict[str, float]

    @property
    def throughput(self) -> float:
        return min(self.bounds.values())

    @property
    def binding_resource(self) -> str:
        return min(self.bounds, key=self.bounds.get)


@dataclass
class OrderingCapacityModel:
    """Throughput of one ordering node (measured at the leader, §6.2)."""

    n: int = 4
    signing_workers: int = 16
    core_budget: float = field(
        default_factory=lambda: cpu_capacity(HARDWARE_THREADS)
    )
    sign_cost: float = SIGN_COST
    order_cost_fixed: float = ORDER_COST_FIXED
    order_cost_per_byte: float = ORDER_COST_PER_BYTE
    block_copy_cost: float = BLOCK_COPY_COST
    block_copy_cost_per_byte: float = BLOCK_COPY_COST_PER_BYTE
    ordering_bandwidth: float = ORDERING_BANDWIDTH
    dissemination_bandwidth: float = DISSEMINATION_BANDWIDTH
    double_sign: bool = False
    #: BFT-SMaRt's consensus batch limit (400 in the paper); smaller
    #: batches amortize the per-consensus vote traffic over fewer
    #: requests (the batching ablation sweeps this)
    batch_limit: int = BATCH_LIMIT
    vote_cost: float = VOTE_COST
    propose_fixed_cost: float = PROPOSE_FIXED_COST

    # ------------------------------------------------------------------
    def breakdown(
        self, envelope_size: int, block_size: int, receivers: int
    ) -> ThroughputBreakdown:
        """All per-transaction resource bounds for one configuration."""
        es_wire = envelope_size + ENVELOPE_WIRE_OVERHEAD
        block_bytes = (
            BLOCK_HEADER_BYTES
            + block_size * (envelope_size + ENVELOPE_FRAMING_BYTES)
        )
        per_tx_block_bytes = block_bytes / block_size

        sign_cost = self.sign_cost * (2 if self.double_sign else 1)

        # per-consensus overhead (leader handles 2(n-1) votes and one
        # PROPOSE per batch) amortized over the batch
        per_batch_cpu = (
            2 * (self.n - 1) * self.vote_cost + self.propose_fixed_cost
        ) / max(1, self.batch_limit)

        # one shared core budget: ordering work + signing + block copies
        cpu_per_tx = (
            self.order_cost_fixed
            + self.order_cost_per_byte * es_wire
            + per_batch_cpu
            + sign_cost / block_size
            + receivers
            * (
                self.block_copy_cost / block_size
                + self.block_copy_cost_per_byte * per_tx_block_bytes
            )
        )
        cpu_bound = self.core_budget / cpu_per_tx

        # the signing pool alone cannot exceed its own capacity
        sign_capacity = cpu_capacity(self.signing_workers)
        sign_pool_bound = (sign_capacity / sign_cost) * block_size

        # leader egress: PROPOSE carries every envelope to n-1 replicas
        propose_bound = self.ordering_bandwidth / (8.0 * es_wire * (self.n - 1))

        # node egress: every block goes to every receiver
        if receivers > 0:
            dissemination_bound = self.dissemination_bandwidth / (
                8.0 * per_tx_block_bytes * receivers
            )
        else:
            dissemination_bound = float("inf")

        return ThroughputBreakdown(
            bounds={
                "cpu": cpu_bound,
                "signing_pool": sign_pool_bound,
                "propose_bandwidth": propose_bound,
                "dissemination_bandwidth": dissemination_bound,
            }
        )

    def throughput(
        self, envelope_size: int, block_size: int, receivers: int
    ) -> float:
        return self.breakdown(envelope_size, block_size, receivers).throughput

    def block_rate(
        self, envelope_size: int, block_size: int, receivers: int
    ) -> float:
        """Blocks signed per second at this operating point (§6.2
        reports ~1,100 blocks/s for 100-envelope blocks)."""
        return self.throughput(envelope_size, block_size, receivers) / block_size


def eq1_bound(
    block_size: int,
    envelope_size: int,
    receivers: int,
    n: int = 4,
    double_sign: bool = False,
) -> float:
    """The paper's Equation 1: ``min(TP_sign * bs, TP_bftsmart)``.

    ``TP_sign`` is the stand-alone Figure 6 rate (the micro-benchmark
    ran without the replication protocol competing for the CPU), so
    this is an upper bound the full system stays below.
    """
    signature_model = SignatureThroughputModel()
    tp_sign = signature_model.peak / (2 if double_sign else 1)
    capacity = OrderingCapacityModel(n=n, double_sign=double_sign)
    bounds = capacity.breakdown(envelope_size, block_size, receivers).bounds
    tp_bftsmart = min(bounds["propose_bandwidth"], bounds["dissemination_bandwidth"])
    return min(tp_sign * block_size, tp_bftsmart)
