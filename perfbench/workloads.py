"""The benchmark's four workloads, built on the program's public constructors.

Every input -- arrival times, envelope sizes, SmallBank account pairs --
is generated here from the workload seed and posted onto the simulator
by this module; nothing in ``repro.workload`` or ``repro.bench`` is used,
so optimising either can never change what is measured.

A workload run has three phases:

* ``make_inputs(seed)`` -- draw the inputs (untimed);
* ``setup(seed)`` -- build the deployment (timed as ``setup_s``; for
  ``fabric_e2e`` this includes opening the SmallBank accounts);
* ``run(deployment, inputs)`` -- post the load and run the simulator to
  a fixed simulated horizon (timed for ``sim_s_per_wall_s``).

``run.py`` then runs the correctness checks of ``checks.py`` and reads
the outcomes and the program's own counters.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import OrderingServiceConfig, build_ordering_service
from repro.fabric import (
    ChannelConfig,
    CommittingPeer,
    EndorsingPeer,
    FabricClient,
    Or,
    SignedBy,
    SmallBankChaincode,
)
from repro.fabric import envelope as envelope_module
from repro.fabric.blockpolicy import SignatureQuorumPolicy
from repro.fabric.client import EndorsementError
from repro.fabric.envelope import Envelope
from repro.sim.network import ConstantLatency, MatrixLatency
from repro.smart import messages as smart_messages
from repro.smart2.deployment import build_smartbft_service

#: the outcome of a request that completed successfully
OK = "ok"
#: the outcome of a request with no result by the end of the drain
UNDELIVERED = "undelivered"

#: one-way LAN delay of the paper's Gigabit cluster, seconds
LAN_ONE_WAY_S = 0.0001

#: inter-region round-trip times (ms) of the paper's AWS deployment (§6.3)
AWS_RTT_MS: Dict[Tuple[str, str], float] = {
    ("oregon", "virginia"): 70.0,
    ("oregon", "canada"): 60.0,
    ("oregon", "saopaulo"): 180.0,
    ("oregon", "ireland"): 130.0,
    ("oregon", "sydney"): 160.0,
    ("virginia", "canada"): 25.0,
    ("virginia", "saopaulo"): 120.0,
    ("virginia", "ireland"): 75.0,
    ("virginia", "sydney"): 200.0,
    ("canada", "saopaulo"): 125.0,
    ("canada", "ireland"): 80.0,
    ("canada", "sydney"): 210.0,
    ("saopaulo", "ireland"): 185.0,
    ("saopaulo", "sydney"): 310.0,
    ("ireland", "sydney"): 280.0,
}
AWS_LOCAL_RTT_MS = 1.0


def pin_ids() -> None:
    """Restart the program's process-global id counters.

    Envelope/transaction ids and BFT-SMaRt request uids come from
    module-level counters; restarting them before every build makes
    repeated runs inside one process byte-identical.
    """
    envelope_module._tx_counter = itertools.count()
    smart_messages._request_uid = itertools.count()


def lan_latency() -> ConstantLatency:
    return ConstantLatency(LAN_ONE_WAY_S, jitter_fraction=0.1)


def aws_latency() -> MatrixLatency:
    oneway = {pair: rtt / 2000.0 for pair, rtt in AWS_RTT_MS.items()}
    local = AWS_LOCAL_RTT_MS / 2000.0
    return MatrixLatency(oneway, jitter_fraction=0.05, local_delay=local)


def jittered_arrivals(
    rng: random.Random, rate: float, start: float, end: float, jitter: float
) -> List[float]:
    """Fixed-interval arrivals, each gap spread by +/- ``jitter``."""
    gap = 1.0 / rate
    times = []
    t = start
    while True:
        t += gap * (1.0 + jitter * (2.0 * rng.random() - 1.0))
        if t >= end:
            return times
        times.append(t)


def poisson_arrivals(
    rng: random.Random, rate: float, start: float, end: float
) -> List[float]:
    times = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return times
        times.append(t)


def envelope_sizes(rng: random.Random, count: int) -> List[int]:
    """1 KB envelopes (the paper's Figure 7-9 size), +/- 64 bytes."""
    return [rng.randint(960, 1088) for _ in range(count)]


class Outcomes:
    """Every attempted request and the one outcome it ended with."""

    def __init__(self) -> None:
        self.due: List[float] = []
        self.done_at: List[Optional[float]] = []
        self.outcome: List[Optional[str]] = []
        #: outcomes reported for a request that already had one
        self.duplicates = 0
        #: largest |submit time - due time| seen by the generator
        self.max_lateness = 0.0

    def attempt(self, due: float, now: float) -> int:
        lateness = abs(now - due)
        if lateness > self.max_lateness:
            self.max_lateness = lateness
        self.due.append(due)
        self.done_at.append(None)
        self.outcome.append(None)
        return len(self.due) - 1

    def finish(self, index: int, outcome: str, at: float) -> None:
        if self.outcome[index] is not None:
            self.duplicates += 1
            return
        self.outcome[index] = outcome
        self.done_at[index] = at

    def close(self) -> None:
        """Mark every request still open as undelivered."""
        for index, outcome in enumerate(self.outcome):
            if outcome is None:
                self.outcome[index] = UNDELIVERED

    @property
    def attempted(self) -> int:
        return len(self.due)

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcome if o == outcome)


@dataclass
class Window:
    """Simulated timeline of one run (absolute simulator times)."""

    start: float  # load starts
    measure_from: float  # end of warm-up
    load_end: float  # no request falls due after this
    horizon: float  # end of the drain


@dataclass
class Deployment:
    """A built workload: the service plus what the load generator needs."""

    service: Any
    window: Window
    outcomes: Outcomes = field(default_factory=Outcomes)
    #: per frontend, the envelope ids it delivered, in order
    delivered_ids: List[List[int]] = field(default_factory=list)
    #: times at which frontend 0 delivered a block
    delivery_times: List[float] = field(default_factory=list)
    #: ordering workloads: envelope id -> (request index, frontend index)
    home: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: leader_crash: the crashed replica and when it crashed
    crashed: Optional[int] = None
    crash_time: Optional[float] = None
    #: fabric_e2e: the peers, the clients, the ledger height and the
    #: per-frontend delivered envelopes after set-up, and the tx id each
    #: request's commit event reported
    peers: List[CommittingPeer] = field(default_factory=list)
    clients: List[FabricClient] = field(default_factory=list)
    setup_height: int = 0
    setup_delivered: List[int] = field(default_factory=list)
    tx_of: Dict[int, int] = field(default_factory=dict)

    @property
    def sim(self):
        return self.service.sim


class OrderingLoad:
    """Submits raw envelopes through the frontends and records deliveries.

    A request completes when the block holding its envelope is delivered
    at the frontend it was submitted through.
    """

    def __init__(self, dep: Deployment, channel: str, sizes: List[int]):
        self.dep = dep
        self.channel = channel
        self.sizes = sizes
        self.sim = dep.sim
        self.frontends = dep.service.frontends
        self.home = dep.home
        #: called with the frontend index after each completion
        self.on_complete: Optional[Callable[[int], None]] = None
        dep.delivered_ids = [[] for _ in self.frontends]
        for index, frontend in enumerate(self.frontends):
            frontend.on_block.append(
                lambda block, index=index: self._on_block(index, block)
            )

    def submit(self, due: float, frontend_index: int) -> None:
        outcomes = self.dep.outcomes
        request = outcomes.attempt(due, self.sim.now)
        envelope = Envelope.raw(
            self.channel,
            self.sizes[request % len(self.sizes)],
            submitter=f"loadgen{frontend_index}",
        )
        envelope.create_time = due
        self.home[envelope.envelope_id] = (request, frontend_index)
        self.frontends[frontend_index].submit(envelope)

    def _on_block(self, frontend_index: int, block) -> None:
        now = self.sim.now
        ids = self.dep.delivered_ids[frontend_index]
        if frontend_index == 0:
            self.dep.delivery_times.append(now)
        home = self.home
        completed = 0
        for envelope in block.envelopes:
            ids.append(envelope.envelope_id)
            entry = home.get(envelope.envelope_id)
            if entry is not None and entry[1] == frontend_index:
                self.dep.outcomes.finish(entry[0], OK, now)
                completed += 1
        if self.on_complete is not None:
            for _ in range(completed):
                self.on_complete(frontend_index)

    def open_loop(self, arrivals: List[float]) -> None:
        """Post each arrival at exactly its due time, round-robin."""
        sim = self.sim
        count = len(arrivals)
        frontends = len(self.frontends)

        def fire(index: int) -> None:
            self.submit(arrivals[index], index % frontends)
            if index + 1 < count:
                sim.post_at(arrivals[index + 1], fire, index + 1)

        if count:
            sim.post_at(arrivals[0], fire, 0)

    def closed_loop(self, outstanding: int, load_end: float) -> None:
        """Keep ``outstanding`` envelopes in flight per frontend until
        ``load_end``; each completion immediately submits the next."""
        sim = self.sim

        def refill(frontend_index: int) -> None:
            if sim.now < load_end:
                self.submit(sim.now, frontend_index)

        def start() -> None:
            for frontend_index in range(len(self.frontends)):
                for _ in range(outstanding):
                    self.submit(sim.now, frontend_index)

        self.on_complete = refill
        sim.post_at(self.dep.window.start, start)


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
class Workload:
    """One named workload; subclasses fill in the three phases."""

    name = ""
    why = ""
    #: simulated durations (seconds): warm-up, load, drain
    warmup = 0.0
    load = 0.0
    drain = 0.0

    def __init__(self, scale: float = 1.0):
        # scale < 1 shortens the simulated run (the benchmark's own tests)
        self.warmup *= scale
        self.load *= scale

    def window(self, start: float) -> Window:
        return Window(
            start=start,
            measure_from=start + self.warmup,
            load_end=start + self.load,
            horizon=start + self.load + self.drain,
        )

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, seed: int) -> Deployment:
        raise NotImplementedError

    def start(self, dep: Deployment, inputs: Dict[str, Any]) -> None:
        raise NotImplementedError

    def run(self, dep: Deployment, inputs: Dict[str, Any]) -> None:
        self.start(dep, inputs)
        dep.sim.run(until=dep.window.horizon)


class LanSaturated(Workload):
    name = "lan_saturated"
    why = (
        "Fig. 7 point: bftsmart n=10 on a 1 Gb/s LAN, closed loop at saturation;"
        " the most event-dense workload"
    )
    warmup = 0.3
    load = 1.5
    drain = 1.0
    outstanding = 50

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"{self.name}/{seed}")
        return {"sizes": envelope_sizes(rng, 4096)}

    def setup(self, seed: int) -> Deployment:
        channel = ChannelConfig("bench", max_message_count=10, batch_timeout=0.5)
        config = OrderingServiceConfig(
            f=3,
            channel=channel,
            num_frontends=4,
            latency=lan_latency(),
            bandwidth_bps=1e9,
            physical_cores=8,
            hardware_threads=16,
            signing_workers=16,
            smart_cpu_fraction=0.6,
            request_timeout=30.0,
            enable_batch_timeout=True,
            seed=seed,
        )
        service = build_ordering_service(config)
        return Deployment(service=service, window=self.window(service.sim.now))

    def start(self, dep: Deployment, inputs: Dict[str, Any]) -> None:
        load = OrderingLoad(dep, "bench", inputs["sizes"])
        load.closed_loop(self.outstanding, dep.window.load_end)


class GeoWheat(Workload):
    name = "geo_wheat"
    why = (
        "Figs. 8/9: WHEAT with 5 replicas on the AWS WAN matrix, open loop at"
        " 1,100 env/s; latency set by WAN rounds and weighted quorums"
    )
    warmup = 1.0
    load = 7.0
    drain = 3.0
    rate = 1100.0
    node_sites = ("oregon", "virginia", "ireland", "sydney", "saopaulo")
    frontend_sites = ("canada", "oregon", "virginia", "saopaulo")

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"{self.name}/{seed}")
        arrivals = jittered_arrivals(rng, self.rate, 0.0, self.load, 0.2)
        return {"arrivals": arrivals, "sizes": envelope_sizes(rng, len(arrivals))}

    def setup(self, seed: int) -> Deployment:
        channel = ChannelConfig("geo", max_message_count=10, batch_timeout=1.0)
        config = OrderingServiceConfig(
            f=1,
            delta=1,
            vmax_holders=(0, 1),  # oregon + virginia
            tentative_execution=True,
            channel=channel,
            num_frontends=len(self.frontend_sites),
            node_sites=list(self.node_sites),
            frontend_sites=list(self.frontend_sites),
            latency=aws_latency(),
            bandwidth_bps=2e9,
            physical_cores=None,
            request_timeout=8.0,
            enable_batch_timeout=True,
            seed=seed,
        )
        service = build_ordering_service(config)
        return Deployment(service=service, window=self.window(service.sim.now))

    def start(self, dep: Deployment, inputs: Dict[str, Any]) -> None:
        load = OrderingLoad(dep, "geo", inputs["sizes"])
        start = dep.window.start
        load.open_loop([start + t for t in inputs["arrivals"]])


class LeaderCrash(Workload):
    name = "leader_crash"
    why = (
        "bftsmart n=4 LAN, open loop at 2,000 env/s, leader crashed mid-run;"
        " the only workload that runs regency change"
    )
    warmup = 1.0
    load = 8.0
    drain = 4.0
    rate = 2000.0
    crash_at = 2.0

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"{self.name}/{seed}")
        arrivals = jittered_arrivals(rng, self.rate, 0.0, self.load, 0.2)
        return {"arrivals": arrivals, "sizes": envelope_sizes(rng, len(arrivals))}

    def window(self, start: float) -> Window:
        # the crash is part of what is measured: never shorten it away
        window = super().window(start)
        window.load_end = max(window.load_end, start + self.crash_at + 4.0)
        window.horizon = window.load_end + self.drain
        return window

    def setup(self, seed: int) -> Deployment:
        channel = ChannelConfig("crash", max_message_count=10, batch_timeout=0.5)
        config = OrderingServiceConfig(
            f=1,
            channel=channel,
            num_frontends=4,
            latency=lan_latency(),
            bandwidth_bps=1e9,
            physical_cores=8,
            hardware_threads=16,
            signing_workers=16,
            request_timeout=1.0,
            enable_batch_timeout=True,
            seed=seed,
        )
        service = build_ordering_service(config)
        return Deployment(service=service, window=self.window(service.sim.now))

    def start(self, dep: Deployment, inputs: Dict[str, Any]) -> None:
        service = dep.service
        load = OrderingLoad(dep, "crash", inputs["sizes"])
        start = dep.window.start
        load.open_loop([start + t for t in inputs["arrivals"]])
        leader = service.replicas[0].leader
        dep.crashed = leader
        dep.crash_time = start + self.crash_at
        service.sim.post_at(start + self.crash_at, service.crash_node, leader)


class FabricE2E(Workload):
    name = "fabric_e2e"
    why = (
        "endorse->order->validate->commit on smartbft n=4, SmallBank with hot"
        " keys; crypto and fabric dominate, and writes conflict"
    )
    warmup = 0.5
    load = 6.0
    drain = 1.0
    rate = 1000.0
    accounts = 1000
    opening_balance = 1_000_000
    hot_set = 10  # 1% of the accounts
    hot_probability = 0.1
    orgs = ("org1", "org2")
    num_clients = 4

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"{self.name}/{seed}")
        arrivals = poisson_arrivals(rng, self.rate, 0.0, self.load)
        transfers = []
        for _ in arrivals:
            pool = self.hot_set if rng.random() < self.hot_probability else self.accounts
            src, dst = rng.sample(range(pool), 2)
            transfers.append((f"a{src}", f"a{dst}", rng.randint(1, 10)))
        return {"arrivals": arrivals, "transfers": transfers}

    def setup(self, seed: int) -> Deployment:
        policy = Or(*(SignedBy(org) for org in self.orgs))
        channel = ChannelConfig(
            "bank",
            max_message_count=10,
            batch_timeout=0.05,
            endorsement_policy=policy,
        )
        config = OrderingServiceConfig(
            orderer="smartbft",
            f=1,
            channel=channel,
            num_frontends=len(self.orgs),
            latency=lan_latency(),
            bandwidth_bps=1e9,
            physical_cores=8,
            hardware_threads=16,
            signing_workers=16,
            seed=seed,
        )
        service = build_smartbft_service(config)
        sim, network, registry = service.sim, service.network, service.registry
        orderer_names = {node.name for node in service.nodes}
        peers, endorsers = [], []
        for index, org in enumerate(self.orgs):
            peer_name = f"peer-{org}"
            registry.enroll(peer_name, org=org)
            peer = CommittingPeer(
                sim,
                network,
                peer_name,
                channel,
                registry=registry,
                orderer_names=orderer_names,
                block_policy=SignatureQuorumPolicy(
                    config.f, registry=registry, orderer_names=orderer_names
                ),
            )
            network.register(peer_name, peer)
            service.frontends[index].attach_peer(peer_name)
            peers.append(peer)
            endorser_name = f"endorser-{org}"
            endorser = EndorsingPeer(
                network,
                endorser_name,
                registry.enroll(endorser_name, org=org),
                state_provider=lambda _channel, peer=peer: peer.state,
                chaincodes={"smallbank": SmallBankChaincode()},
            )
            network.register(endorser_name, endorser)
            endorsers.append(endorser)
        clients = [
            FabricClient(
                sim,
                network,
                registry.enroll(f"client{c}", org="clients"),
                registry,
                endorsers=[e.name for e in endorsers],
                orderer_endpoint=service.frontends[c % len(self.orgs)].name,
                default_policy=policy,
            )
            for c in range(self.num_clients)
        ]
        dep = Deployment(service=service, window=self.window(0.0))
        dep.peers = peers
        dep.clients = clients
        self._record_frontends(dep)
        self._open_accounts(dep)
        dep.window = self.window(sim.now)
        return dep

    @staticmethod
    def _record_frontends(dep: Deployment) -> None:
        dep.delivered_ids = [[] for _ in dep.service.frontends]
        sim = dep.sim
        for index, frontend in enumerate(dep.service.frontends):

            def on_block(block, index=index):
                if index == 0:
                    dep.delivery_times.append(sim.now)
                dep.delivered_ids[index].extend(e.envelope_id for e in block.envelopes)

            frontend.on_block.append(on_block)

    def _open_accounts(self, dep: Deployment) -> None:
        sim = dep.sim
        futures = [
            dep.clients[a % len(dep.clients)].submit_transaction(
                "bank", "smallbank", "open", (f"a{a}", self.opening_balance)
            )
            for a in range(self.accounts)
        ]
        opened = [0]

        def count(_future) -> None:
            opened[0] += 1

        for future in futures:
            future.add_callback(count)
        if not sim.run_until(
            lambda: opened[0] == len(futures), deadline=sim.now + 60.0
        ):
            raise RuntimeError("fabric_e2e: opening the accounts did not finish")
        for future in futures:
            if future.value.validation_code != "VALID":
                raise RuntimeError("fabric_e2e: an account failed to open")
        # start the measured load on a whole simulated second
        sim.run(until=float(int(sim.now) + 1))
        dep.setup_height = dep.peers[0].ledger.height
        dep.setup_delivered = [len(ids) for ids in dep.delivered_ids]

    def start(self, dep: Deployment, inputs: Dict[str, Any]) -> None:
        sim = dep.sim
        outcomes = dep.outcomes
        clients = dep.clients
        arrivals = [dep.window.start + t for t in inputs["arrivals"]]
        transfers = inputs["transfers"]
        count = len(arrivals)
        tx_of = dep.tx_of

        def settle(request: int, future) -> None:
            try:
                event = future.value
            except EndorsementError:
                outcomes.finish(request, "endorsement_failed", sim.now)
                return
            tx_of[request] = event.tx_id
            if event.validation_code == "VALID":
                outcomes.finish(request, OK, event.commit_time)
            else:
                outcomes.finish(request, event.validation_code, sim.now)

        def fire(index: int) -> None:
            request = outcomes.attempt(arrivals[index], sim.now)
            future = clients[index % len(clients)].submit_transaction(
                "bank", "smallbank", "transfer", transfers[index]
            )
            future.add_callback(lambda f, request=request: settle(request, f))
            if index + 1 < count:
                sim.post_at(arrivals[index + 1], fire, index + 1)

        if count:
            sim.post_at(arrivals[0], fire, 0)


WORKLOADS = {w.name: w for w in (LanSaturated, GeoWheat, FabricE2E, LeaderCrash)}
