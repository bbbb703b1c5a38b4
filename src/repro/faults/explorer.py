"""Seeded randomized fault-schedule exploration (a mini-Jepsen).

``run_seed(seed)`` derives a fault schedule from the seed, stands up a
complete ordering-service deployment (``3f+1`` replicas of the
profile's backend + ordering nodes + frontends) on a fresh simulator,
drives an envelope workload through it while the schedule fires, heals
every fault, runs to quiescence, and checks the global invariants of
:mod:`repro.faults.invariants`.

Everything is derived deterministically from the seed: the same seed
produces a byte-identical fault trace and identical final ledger
hashes, which is what makes a failing seed *reproducible*.  A failing
schedule can additionally be *shrunk* to a locally-minimal fault trace
(greedy one-event removal, re-running after each candidate).

A :class:`Profile` record in :data:`PROFILES` describes each schedule
space -- fault kinds, leading kind, backend and deployment options --
and one table-driven sampler serves them all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto.hashing import sha256_hex
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.faults.actions import (
    ATTACKER_ID_BASE,
    FLOOD_ID_BASE,
    CensorClients,
    CorruptWrites,
    CrashReplica,
    Delay,
    Drop,
    Duplicate,
    EquivocatePropose,
    FaultAction,
    FloodClient,
    Match,
    Partition,
    Reorder,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    BlockRecorder,
    SubmissionRecorder,
    Violation,
    VoteRecorder,
    check_no_silent_drop,
    check_ordering_service,
    replica_log_digests,
)
from repro.faults.scenario import FaultEvent, Scenario
from repro.smart.view import bft_group_size
from repro.ordering.admission import AdmissionConfig
from repro.ordering.service import (
    FRONTEND_ID_BASE,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.sim.randomness import RandomStreams


@dataclass(frozen=True)
class Profile:
    """One schedule space of the explorer, as data."""

    #: one line for ``--profile`` help
    description: str
    #: random stream the sampler draws from; each profile has its own,
    #: so adding or changing one never shifts another's seeds
    stream: str
    #: fault kinds ``rng.choice`` draws from; the order is part of every
    #: seed's schedule
    kinds: Tuple[str, ...]
    #: kind of the first event, taken without a draw (``None``: drawn)
    lead: Optional[str] = None
    #: ``OrderingServiceConfig.orderer`` of the deployment
    backend: str = "bftsmart"
    #: durable consensus WALs, plus the no-equivocation-by-amnesia check
    durable_wal: bool = False
    #: admission control; when set, count-based liveness gives way to the
    #: no-silent-drop invariant, because explicit rejections legitimately
    #: shrink commits
    admission: Optional[AdmissionConfig] = None


#: The explorer's schedule spaces by name (``ExplorerConfig.profile``).
PROFILES: Dict[str, Profile] = {
    # the historical schedule space: seeds stay byte-identical
    "default": Profile(
        description="message faults, one crash, one partition and one "
        "Byzantine replica against BFT-SMaRt",
        stream="fault-schedule",
        kinds=("drop", "delay", "duplicate", "reorder", "crash",
               "partition", "equivocate", "corrupt-writes"),
    ),
    # Byzantine kinds are excluded so the vote-equivocation check only
    # ever fires on a protocol failure (an amnesiac replica contradicting
    # its pre-crash votes), never on injected equivocation.  Bit-rot is
    # left to unit tests: corrupting already-synced data is outside the
    # crash fault model.  See docs/RECOVERY.md.
    "recovery": Profile(
        description="amnesiac crash_restart and storage faults against "
        "durable-WAL replicas; see docs/RECOVERY.md",
        stream="fault-schedule/recovery",
        kinds=("drop", "delay", "duplicate", "reorder", "crash_restart",
               "partition"),
        lead="crash_restart",
        durable_wal=True,
    ),
    # censor is the fault SmartBFT's leader rotation and censorship
    # blacklist exist to defeat.  equivocate/corrupt-writes forge Propose
    # and Write messages SmartBFT never sends; amnesiac restarts are left
    # to the smart2 unit tests, because SmartBFT recovers by peer state
    # transfer, not WAL replay.  See docs/SMARTBFT.md.
    "smartbft": Profile(
        description="leader censorship plus message and crash faults "
        "against the SmartBFT backend; see docs/SMARTBFT.md",
        stream="fault-schedule/smartbft",
        kinds=("drop", "delay", "duplicate", "reorder", "crash",
               "partition", "censor"),
        lead="censor",
        backend="smartbft",
    ),
    # Byzantine replica kinds are excluded so every violation under
    # overload is attributable to the backpressure path.  The admission
    # budget is generous enough that the honest workload passes
    # untouched while floods are shed explicitly.  See docs/WORKLOADS.md.
    "overload": Profile(
        description="client floods against the admission-controlled "
        "service, plus the no-silent-drop invariant; see docs/WORKLOADS.md",
        stream="fault-schedule/overload",
        kinds=("flood", "drop", "delay", "duplicate", "reorder", "crash",
               "partition"),
        lead="flood",
        admission=AdmissionConfig(
            tenant_rate=200.0, tenant_burst=50.0, max_in_flight=256
        ),
    ),
}


def profile_named(name: str) -> Profile:
    """The :data:`PROFILES` record called ``name``."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown explorer profile {name!r}; "
            f"known profiles: {', '.join(PROFILES)}"
        ) from None


@dataclass
class ExplorerConfig:
    """Knobs of one exploration run (defaults: f=1, n=4, LAN)."""

    f: int = 1
    channel: str = "ch0"
    envelopes: int = 24
    payload_size: int = 256
    block_size: int = 4
    batch_timeout: float = 0.25
    num_frontends: int = 2
    request_timeout: float = 0.5
    #: envelope submissions spread over [load_start, load_start + load_window]
    load_start: float = 0.1
    load_window: float = 1.5
    #: fault events sampled within this window
    fault_window: Tuple[float, float] = (0.2, 2.4)
    heal_at: float = 3.0
    #: absolute simulated-time budget to reach quiescence
    deadline: float = 60.0
    min_events: int = 1
    max_events: int = 4
    #: name of the schedule space, a key of :data:`PROFILES`
    profile: str = "default"

    def __post_init__(self) -> None:
        profile_named(self.profile)

    @property
    def n(self) -> int:
        return bft_group_size(self.f)


@dataclass
class RunResult:
    """Outcome of one schedule run."""

    seed: int
    events: List[FaultEvent]
    trace: List[str]
    trace_digest: str
    ledger_digest: str
    frontend_digests: Dict[Any, str]
    violations: List[Violation]
    submitted: int
    delivered: int
    sim_time: float

    @property
    def ok(self) -> bool:
        return not self.violations


# One builder per fault kind: ``(rng, cfg, index, uses) -> action``,
# where ``index`` is the event's position in the schedule and ``uses``
# how many earlier events drew from the kind's budget.  Each builder's
# draws, and their order, are part of every seed's schedule.
Builder = Callable[[random.Random, ExplorerConfig, int, int], FaultAction]


def _link(rng: random.Random, cfg: ExplorerConfig) -> Match:
    src, dst = rng.sample(range(cfg.n), 2)
    return Match(src=src, dst=dst)


def _drop(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    match = _link(rng, cfg)
    rate = round(rng.uniform(0.3, 0.9), 2)
    return Drop(match, rate=rate, stream=f"drop-{index}")


def _delay(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    match = _link(rng, cfg)
    return Delay(match, delay=round(rng.uniform(0.02, 0.15), 3))


def _duplicate(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    match = _link(rng, cfg)
    return Duplicate(match, copies=rng.randint(2, 3), spacing=0.004)


def _reorder(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    match = _link(rng, cfg)
    delay = round(rng.uniform(0.01, 0.06), 3)
    rate = round(rng.uniform(0.4, 1.0), 2)
    return Reorder(match, delay=delay, rate=rate, stream=f"reorder-{index}")


def _crash(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    return CrashReplica(rng.randrange(cfg.n))


def _crash_restart(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    # half the restarts (per the stream) leave a torn tail on the
    # victim's disk; the rest lose only the unsynced suffix
    victim = rng.randrange(cfg.n)
    return CrashReplica(victim, amnesia=True, torn_tail=rng.random() < 0.5)


def _partition(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    n = cfg.n
    size = rng.randint(1, n // 2)
    isolated = sorted(rng.sample(range(n), size))
    return Partition(isolated, [p for p in range(n) if p not in isolated])


def _equivocate(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    return EquivocatePropose(0, rng.randrange(1, cfg.n))


def _corrupt_writes(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    return CorruptWrites(rng.randrange(cfg.n))


def _censor(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    client = FRONTEND_ID_BASE + rng.randrange(cfg.num_frontends)
    return CensorClients(rng.randrange(cfg.n), {client})


def _flood(rng: random.Random, cfg: ExplorerConfig, index: int, uses: int) -> FaultAction:
    # each flood gets its own attacker id and pinned envelope-id block,
    # keeping run digests reproducible
    target = FRONTEND_ID_BASE + rng.randrange(cfg.num_frontends)
    rate = round(rng.uniform(400.0, 2000.0), 1)
    return FloodClient(
        target,
        rate=rate,
        channel=cfg.channel,
        payload_size=cfg.payload_size,
        submitter=f"mallory{uses}",
        unique_every=rng.randint(1, 6),
        id_base=FLOOD_ID_BASE + uses * 1_000_000,
        attacker_id=ATTACKER_ID_BASE + uses,
    )


_BUILDERS: Dict[str, Builder] = {
    "drop": _drop,
    "delay": _delay,
    "duplicate": _duplicate,
    "reorder": _reorder,
    "crash": _crash,
    "crash_restart": _crash_restart,
    "partition": _partition,
    "equivocate": _equivocate,
    "corrupt-writes": _corrupt_writes,
    "censor": _censor,
    "flood": _flood,
}

#: Kinds that share one budget: at most one Byzantine replica action.
_BUDGET_GROUP = {"equivocate": "byzantine", "corrupt-writes": "byzantine"}
_ONCE = ("crash", "crash_restart", "partition", "censor", "byzantine")


def _budget(group: str, cfg: ExplorerConfig) -> Optional[int]:
    """How many events of ``group`` one schedule may hold (``None``:
    unlimited).

    ``crash``, ``crash_restart``, ``partition``, ``censor`` and the
    shared Byzantine group occur at most once, so the fault assumption
    (at most one faulty replica, well within f; quorums eventually
    available) holds by construction.  ``flood`` occurs at most ``num_frontends`` times; the
    target frontend is drawn per flood, so one frontend may be flooded
    more than once.
    """
    if group == "flood":
        return cfg.num_frontends
    return 1 if group in _ONCE else None


def sample_schedule(seed: int, cfg: Optional[ExplorerConfig] = None) -> List[FaultEvent]:
    """Derive a fault schedule deterministically from ``seed``.

    An over-budget draw (see :func:`_budget`) becomes a ``delay``.
    """
    cfg = cfg or ExplorerConfig()
    profile = profile_named(cfg.profile)
    rng = RandomStreams(seed).stream(profile.stream)
    count = rng.randint(cfg.min_events, cfg.max_events)
    used: Dict[str, int] = {}
    events: List[FaultEvent] = []
    for index in range(count):
        if index == 0 and profile.lead is not None:
            kind = profile.lead
        else:
            kind = rng.choice(profile.kinds)
        at = round(rng.uniform(*cfg.fault_window), 3)
        duration = round(rng.uniform(0.4, 1.5), 3)
        group = _BUDGET_GROUP.get(kind, kind)
        limit = _budget(group, cfg)
        if limit is not None and used.get(group, 0) >= limit:
            kind = group = "delay"
        uses = used.get(group, 0)
        used[group] = uses + 1
        action = _BUILDERS[kind](rng, cfg, index, uses)
        events.append(FaultEvent(at=at, action=action, duration=duration))
    events.sort(key=lambda e: e.at)
    return events


def run_schedule(
    seed: int, events: List[FaultEvent], cfg: Optional[ExplorerConfig] = None
) -> RunResult:
    """Run one fault schedule against a fresh deployment and check the
    invariants."""
    cfg = cfg or ExplorerConfig()
    profile = profile_named(cfg.profile)
    service = build_ordering_service(
        OrderingServiceConfig(
            orderer=profile.backend,
            f=cfg.f,
            channel=ChannelConfig(
                cfg.channel,
                max_message_count=cfg.block_size,
                batch_timeout=cfg.batch_timeout,
            ),
            num_frontends=cfg.num_frontends,
            physical_cores=None,
            request_timeout=cfg.request_timeout,
            enable_batch_timeout=True,
            durable_wal=profile.durable_wal,
            seed=seed,
            admission=profile.admission,
        )
    )
    recorder = BlockRecorder(service.network)
    vote_recorder = VoteRecorder(service.network) if profile.durable_wal else None
    submissions = (
        SubmissionRecorder(service.frontends)
        if profile.admission is not None
        else None
    )
    injector = FaultInjector(service.network, service.replicas, seed=seed)
    Scenario(events, heal_at=cfg.heal_at).install(injector)

    # the workload: evenly spaced envelopes, round-robin over frontends.
    # Envelope ids are pinned so block digests (which hash envelope ids)
    # are identical across reruns of the same seed in one process.
    spacing = cfg.load_window / cfg.envelopes
    for i in range(cfg.envelopes):
        envelope = Envelope(
            channel_id=cfg.channel,
            transaction=None,
            payload_size=cfg.payload_size,
            envelope_id=i,
        )
        service.sim.schedule_at(
            cfg.load_start + i * spacing,
            service.submit,
            envelope,
            i % cfg.num_frontends,
        )

    if submissions is not None:
        # under admission control some honest envelopes are legitimately
        # (and explicitly) rejected, so "delivered >= offered" is the wrong
        # finish line: run until the floods healed and every *admitted*
        # envelope has been committed
        load_end = cfg.load_start + cfg.load_window
        quiesce_at = max(load_end, cfg.heal_at) + 0.001
        service.sim.run_until(
            lambda: service.sim.now >= quiesce_at
            and not submissions.unresolved_ids(),
            cfg.deadline,
        )
    else:
        service.sim.run_until(
            lambda: service.total_delivered() >= cfg.envelopes, cfg.deadline
        )
    # make sure healing happened even if delivery finished early, so the
    # deployment is always left in (and checked in) a fault-free state
    if service.sim.now < cfg.heal_at:
        service.sim.run(until=cfg.heal_at + 0.001)

    violations = check_ordering_service(
        service,
        recorder,
        vote_recorder=vote_recorder,
        expect_live=submissions is None,
    )
    if submissions is not None:
        violations += check_no_silent_drop(submissions)
    frontend_digests = {
        frontend.name: frontend.ledger_digest().hex()
        for frontend in service.frontends
    }
    log_digest = sha256_hex(
        "replica-logs",
        [
            (rid, sorted((cid, digest) for cid, digest in cids.items()))
            for rid, cids in sorted(replica_log_digests(service.replicas).items())
        ],
    )
    ledger_digest = sha256_hex(
        "run-ledger",
        [frontend_digests[fe.name] for fe in service.frontends],
        log_digest,
    )
    return RunResult(
        seed=seed,
        events=list(events),
        trace=list(injector.trace),
        trace_digest=sha256_hex("trace", list(injector.trace)),
        ledger_digest=ledger_digest,
        frontend_digests=frontend_digests,
        violations=violations,
        submitted=service.total_submitted(),
        delivered=service.total_delivered(),
        sim_time=service.sim.now,
    )


def run_seed(seed: int, cfg: Optional[ExplorerConfig] = None) -> RunResult:
    """Sample the seed's schedule and run it."""
    cfg = cfg or ExplorerConfig()
    return run_schedule(seed, sample_schedule(seed, cfg), cfg)


def shrink_schedule(
    seed: int,
    events: List[FaultEvent],
    cfg: Optional[ExplorerConfig] = None,
    max_runs: int = 64,
) -> Tuple[List[FaultEvent], RunResult]:
    """Greedily minimize a *failing* schedule.

    Repeatedly tries dropping one event at a time, keeping any removal
    that still violates an invariant, until no single removal does (or
    the run budget is exhausted).  Returns the minimal schedule and its
    run result.
    """
    cfg = cfg or ExplorerConfig()
    current = list(events)
    runs = 0
    changed = True
    while changed and runs < max_runs:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            runs += 1
            if not run_schedule(seed, candidate, cfg).ok:
                current = candidate
                changed = True
                break
            if runs >= max_runs:
                break
    return current, run_schedule(seed, current, cfg)


@dataclass
class ExplorationReport:
    """Aggregate of an exploration sweep."""

    results: List[RunResult] = field(default_factory=list)
    shrunk: Dict[int, List[FaultEvent]] = field(default_factory=dict)

    @property
    def failures(self) -> List[RunResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def explore(
    seeds: int,
    start_seed: int = 0,
    cfg: Optional[ExplorerConfig] = None,
    shrink: bool = False,
) -> ExplorationReport:
    """Run ``seeds`` consecutive seeds; optionally shrink the failures."""
    cfg = cfg or ExplorerConfig()
    report = ExplorationReport()
    for seed in range(start_seed, start_seed + seeds):
        result = run_seed(seed, cfg)
        report.results.append(result)
        if not result.ok and shrink:
            minimal, _ = shrink_schedule(seed, result.events, cfg)
            report.shrunk[seed] = minimal
    return report
