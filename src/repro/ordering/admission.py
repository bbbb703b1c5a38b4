"""Admission control and backpressure for the ordering frontends.

The paper's frontend simply relays every client envelope into the BFT
cluster (§5.1) -- under open-loop overload that collapses: the proxy's
outstanding-request set grows without bound, batches queue faster than
consensus drains them, and latency diverges for *everyone*.  This
module supplies the missing backpressure, designed around three rules:

1. **Per-tenant token buckets** -- each submitting tenant (the
   envelope's ``submitter``) gets a bounded refill-rate/burst budget,
   so one flooding tenant exhausts its own bucket instead of starving
   the rest (fairness under adversarial load).
2. **A global in-flight window** -- the frontend admits at most
   ``max_in_flight`` envelopes that are submitted but not yet committed
   (sized off the proxy's outstanding-request depth), bounding queueing
   delay: an admitted envelope's latency is capped by
   ``window / service-rate`` instead of growing with offered load.
3. **Explicit rejection, never silent drops** -- an envelope that is
   not admitted gets a :class:`Rejected` verdict carrying the reason
   and a ``retry_after`` hint, so a well-behaved client can back off
   (see :meth:`repro.smart.proxy.ServiceProxy.retry_delay`) and the
   no-silent-drop invariant (:mod:`repro.faults.invariants`) can hold
   every submission accountable.

Admission control is **opt-in**: frontends built without an
:class:`AdmissionController` behave exactly as before (fire-and-forget
relay, oversized payloads raise).  Deployments enable it through
``OrderingServiceConfig(admission=AdmissionConfig(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: rejection reasons (stable strings: metric names and reports key on them)
REASON_RATE_LIMITED = "rate-limited"
REASON_WINDOW_FULL = "window-full"
REASON_OVERSIZED = "oversized"


@dataclass(frozen=True)
class Rejected:
    """Explicit backpressure feedback for one refused envelope."""

    reason: str
    #: seconds the client should wait before resubmitting (a hint, not
    #: a guarantee -- the bucket may be drained again by then)
    retry_after: float

    def __str__(self) -> str:
        return f"rejected({self.reason}, retry_after={self.retry_after:.3f}s)"


#: the verdict for an envelope over AbsoluteMaxBytes (never admissible,
#: so resubmitting it is futile)
OVERSIZED = Rejected(REASON_OVERSIZED, retry_after=0.0)


@dataclass(frozen=True)
class AdmissionConfig:
    """Budget knobs for one frontend's admission controller."""

    #: steady-state tokens (envelopes) per second granted to each tenant
    tenant_rate: float = 1000.0
    #: bucket capacity: how far a tenant may burst above the rate
    tenant_burst: float = 100.0
    #: submitted-but-uncommitted envelopes the frontend accepts before
    #: shedding (the backpressure window, sized off the proxy's
    #: outstanding-request depth)
    max_in_flight: int = 512


@dataclass
class _Bucket:
    tokens: float
    refilled_at: float


class AdmissionController:
    """Token buckets + an in-flight window for one frontend.

    State is O(active tenants): one bucket per distinct submitter name,
    a handful of counters, nothing per envelope.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None):
        self.config = config or AdmissionConfig()
        self._buckets: Dict[str, _Bucket] = {}
        #: envelopes admitted but not yet seen in a delivered block
        self.in_flight = 0
        # aggregate counters (the obs layer tracks these as gauges)
        self.admitted = 0
        self.rejected: Dict[str, int] = {}
        # per-tenant counters, for fairness reporting
        self.tenant_admitted: Dict[str, int] = {}
        self.tenant_rejected: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def admit(self, tenant: str, now: float) -> Optional[Rejected]:
        """Admit one envelope from ``tenant`` or explain the refusal.

        Returns ``None`` on admit (one token consumed, window slot
        taken) or a :class:`Rejected` verdict.  Window pressure is
        checked first: it protects every tenant, while the bucket only
        protects tenants from each other.
        """
        cfg = self.config
        if self.in_flight >= cfg.max_in_flight:
            # the window drains as blocks commit; suggest one bucket
            # period as the resubmission horizon
            return self._reject(
                tenant, REASON_WINDOW_FULL, retry_after=1.0 / max(cfg.tenant_rate, 1e-9)
            )
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = _Bucket(
                tokens=cfg.tenant_burst, refilled_at=now
            )
        else:
            elapsed = now - bucket.refilled_at
            if elapsed > 0:
                bucket.tokens = min(
                    cfg.tenant_burst, bucket.tokens + elapsed * cfg.tenant_rate
                )
                bucket.refilled_at = now
        if bucket.tokens < 1.0:
            return self._reject(
                tenant,
                REASON_RATE_LIMITED,
                retry_after=(1.0 - bucket.tokens) / max(cfg.tenant_rate, 1e-9),
            )
        bucket.tokens -= 1.0
        self.in_flight += 1
        self.admitted += 1
        self.tenant_admitted[tenant] = self.tenant_admitted.get(tenant, 0) + 1
        return None

    def reject_oversized(self, tenant: str) -> Rejected:
        """Record an oversized-payload refusal (never admissible, so
        ``retry_after`` is 0: resubmitting the same envelope is futile)."""
        return self._reject(tenant, REASON_OVERSIZED, retry_after=0.0)

    def release(self, count: int = 1) -> None:
        """Free window slots: ``count`` admitted envelopes committed."""
        self.in_flight = max(0, self.in_flight - count)

    # ------------------------------------------------------------------
    def _reject(self, tenant: str, reason: str, retry_after: float) -> Rejected:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        self.tenant_rejected[tenant] = self.tenant_rejected.get(tenant, 0) + 1
        return Rejected(reason=reason, retry_after=retry_after)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def shed_count(self) -> int:
        return sum(self.rejected.values())

    def shed_fraction(self) -> float:
        offered = self.admitted + self.shed_count
        return self.shed_count / offered if offered else 0.0

    def fairness_index(self) -> float:
        """Jain's index over per-tenant *admitted* counts."""
        counts = sorted(self.tenant_admitted.items(), key=lambda kv: kv[0])
        return jain_fairness([count for _, count in counts])


def jain_fairness(values: List[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog.

    ``J = (sum x)^2 / (n * sum x^2)`` over per-tenant allocations;
    empty or all-zero inputs count as perfectly fair.
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    square_of_sum = sum(xs) ** 2
    sum_of_squares = sum(x * x for x in xs)
    if sum_of_squares == 0.0:
        return 1.0
    return square_of_sum / (len(xs) * sum_of_squares)


def merge_tenant_counts(
    controllers: List[AdmissionController],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Aggregate (admitted, rejected) per tenant across frontends."""
    admitted: Dict[str, int] = {}
    rejected: Dict[str, int] = {}
    for controller in controllers:
        for tenant, count in sorted(
            controller.tenant_admitted.items(), key=lambda kv: kv[0]
        ):
            admitted[tenant] = admitted.get(tenant, 0) + count
        for tenant, count in sorted(
            controller.tenant_rejected.items(), key=lambda kv: kv[0]
        ):
            rejected[tenant] = rejected.get(tenant, 0) + count
    return admitted, rejected
