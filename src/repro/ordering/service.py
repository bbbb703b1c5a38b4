"""Deployment builder: assemble a complete ordering service.

Wires together everything from Figure 4: a cluster of ``3f+1+delta``
ordering nodes (BFT-SMaRt replica + :class:`BFTOrderingNode` app +
per-machine CPU with a signing thread pool) and a set of frontends,
over a simulated LAN or WAN.  The same builder stands up the SmartBFT
backend and the crash-fault baselines (solo, Kafka), so every caller
drives all four through one surface.  Used by integration tests, the
examples and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Type, TypeVar, Union

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.blockpolicy import (
    AcceptAllBlocks,
    BlockValidityPolicy,
    SignatureCountPolicy,
)
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.obs.registry import Histogram, MetricsRegistry
from repro.ordering.admission import AdmissionConfig, AdmissionController
from repro.ordering.frontend import Frontend, FrontendCore
from repro.ordering.node import BFTOrderingNode, TimeToCut
from repro.ordering.wal_codec import decode_value, encode_value
from repro.sim.core import Simulator
from repro.sim.cpu import CPU
from repro.sim.network import ConstantLatency, LatencyModel, Network
from repro.sim.randomness import RandomStreams
from repro.sim.storage import DEFAULT_FSYNC_LATENCY, SimDisk
from repro.smart.messages import ClientRequest
from repro.smart.proxy import ServiceProxy
from repro.smart.replica import ReplicaConfig, ServiceReplica, default_replier
from repro.smart.view import View, bft_group_size, binary_weights, one_correct_size
from repro.smart.wal import ConsensusWAL

#: network-id base for frontends (BFT-SMaRt client ids)
FRONTEND_ID_BASE = 1000
#: network-id base for the nodes' internal TTC proxies
TTC_ID_BASE = 2000
#: network-id base for admin (reconfiguration) clients
ADMIN_ID_BASE = 3000


@dataclass
class OrderingServiceConfig:
    """Everything needed to stand up one deployment."""

    #: which ordering backend to build: "bftsmart" (the paper's
    #: service), "smartbft" (the successor design, repro.smart2), or
    #: the crash-fault baselines "solo" and "kafka" (n and the BFT-only
    #: fields do not apply to those)
    orderer: str = "bftsmart"
    f: int = 1
    delta: int = 0
    vmax_holders: Optional[Sequence[int]] = None
    tentative_execution: bool = False
    channel: ChannelConfig = field(
        default_factory=lambda: ChannelConfig(channel_id="channel0")
    )
    #: additional channels beyond ``channel`` (the ordering service
    #: "gathers envelopes from all channels in the network", §3)
    extra_channels: Sequence[ChannelConfig] = ()
    num_frontends: int = 1
    #: site name per node (len == n); None = all "lan"
    node_sites: Optional[Sequence[str]] = None
    #: site name per frontend; None = all "lan"
    frontend_sites: Optional[Sequence[str]] = None
    latency: Optional[LatencyModel] = None
    bandwidth_bps: float = 1e9
    #: per-node CPU model; None disables CPU cost accounting entirely
    physical_cores: Optional[int] = 8
    hardware_threads: int = 16
    signing_workers: int = 16
    sign_cost: Optional[float] = None
    #: fraction of each node's CPU consumed by BFT-SMaRt itself (§6.2)
    smart_cpu_fraction: float = 0.0
    max_batch: int = 400
    request_timeout: float = 2.0
    checkpoint_period: int = 1000
    enable_batch_timeout: bool = False
    verify_block_signatures: bool = False
    double_sign: bool = False
    #: opt-in admission control / backpressure: each frontend gets its
    #: own :class:`~repro.ordering.admission.AdmissionController` built
    #: from this config (None keeps the paper's relay-everything
    #: frontend; see docs/WORKLOADS.md)
    admission: Optional["AdmissionConfig"] = None
    #: give every replica a consensus WAL on simulated stable storage,
    #: enabling crash-recovery with amnesia (see docs/RECOVERY.md)
    durable_wal: bool = False
    fsync_latency: float = DEFAULT_FSYNC_LATENCY
    seed: int = 0

    @property
    def n(self) -> int:
        return bft_group_size(self.f, self.delta)


def make_ordering_wal(config: OrderingServiceConfig) -> ConsensusWAL:
    """A per-replica consensus WAL wired to the ordering-layer codec."""
    disk = SimDisk(fsync_latency=config.fsync_latency)
    return ConsensusWAL(
        disk,
        encode_op=encode_value,
        decode_op=decode_value,
        encode_state=encode_value,
        decode_state=decode_value,
    )


def ordering_replier(replica, request: ClientRequest, result, regency, tentative):
    """The custom replier of §5.1: execution results for envelopes are
    *not* sent back to the invoking client (blocks flow to frontends
    instead); only control operations (reconfigurations, unknown ops)
    get normal replies."""
    if isinstance(request.operation, (Envelope, TimeToCut)):
        return
    default_replier(replica, request, result, regency, tentative)


def make_node_cpu(sim: Simulator, config: OrderingServiceConfig) -> Optional[CPU]:
    """One ordering node's machine: a multicore CPU, or None when the
    deployment disables CPU cost accounting."""
    if config.physical_cores is None:
        return None
    cpu = CPU(
        sim,
        physical_cores=config.physical_cores,
        hardware_threads=config.hardware_threads,
    )
    if config.smart_cpu_fraction > 0:
        cpu.set_background_load(config.smart_cpu_fraction)
    return cpu


def channel_map(config: OrderingServiceConfig) -> Dict[str, ChannelConfig]:
    """Channel id -> configuration for every channel the service orders."""
    channels = {config.channel.channel_id: config.channel}
    for extra in config.extra_channels:
        if extra.channel_id in channels:
            raise ValueError(f"duplicate channel id {extra.channel_id!r}")
        channels[extra.channel_id] = extra
    return channels


@dataclass
class OrderingDeployment:
    """What every backend's service shares: its wiring and the surface
    harnesses drive without naming the backend -- ``orderer_names``,
    ``attach_peer(peer)``, ``block_policy()``, ``dissemination_bytes()``
    (delivering endpoints to their delivery clients only) and
    ``delivery_latency()`` (where blocks are handed to peers)."""

    sim: Simulator
    network: Network
    config: OrderingServiceConfig
    registry: KeyRegistry
    nodes: List[Any]
    #: the deployment's one metrics registry (the hub's, if attached)
    metrics: MetricsRegistry

    @property
    def orderer_names(self) -> Set[str]:
        """Identity names of the nodes that sign blocks."""
        return {node.name for node in self.nodes}

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)


@dataclass
class BFTService(OrderingDeployment):
    """A fully wired BFT ordering deployment, whichever the backend.

    The probe surface below is what benchmarks, the fault explorer and
    the conformance battery drive.  On SmartBFT ``replicas`` and
    ``nodes`` name the same objects (a node *is* its own replica).
    """

    view: View
    replicas: List[Any]
    frontends: List[FrontendCore]
    cpus: List[Optional[CPU]]
    #: optional repro.obs.Observability hub wired through every component
    observability: Optional[Any] = None

    def submit(self, envelope: Envelope, frontend_index: int = 0) -> None:
        self.frontends[frontend_index].submit(envelope)

    def attach_peer(self, peer: Any) -> None:
        self.network.register(peer.name, peer)
        self.frontends[0].attach_peer(peer.name)

    def dissemination_bytes(self) -> int:
        """Bytes from the ordering nodes to the frontends."""
        by_src = self.network.stats.bytes_by_src
        return int(
            sum(
                by_src.get(i, {}).get(frontend.name, 0)
                for i in range(len(self.nodes))
                for frontend in self.frontends
            )
        )

    def delivery_latency(self) -> Histogram:
        return self.metrics.histogram(f"ordering.frontend.{self.frontends[0].name}.latency")

    def crash_node(self, index: int, amnesia: bool = False) -> None:
        self.replicas[index].crash(amnesia=amnesia)

    def recover_node(self, index: int) -> None:
        self.replicas[index].recover()

    # ------------------------------------------------------------------
    # invariant probes (repro.faults)
    # ------------------------------------------------------------------
    def ledger_digests(self) -> Dict[int, bytes]:
        """Per-frontend chain digest over the blocks each delivered."""
        return {
            frontend.name: frontend.ledger_digest() for frontend in self.frontends
        }

    def replica_log_digests(self) -> Dict[int, Dict[int, bytes]]:
        """Per-replica map of decided cid -> batch hash (durability log)."""
        from repro.smart.consensus import batch_hash

        return {
            replica.replica_id: {
                cid: batch_hash(cid, batch) for cid, batch in replica.log.entries
            }
            for replica in self.replicas
        }

    def total_submitted(self) -> int:
        return sum(frontend.envelopes_submitted for frontend in self.frontends)

    def total_delivered(self) -> int:
        """Envelopes delivered through frontend 0's meter (all frontends
        deliver the same blocks, so one meter suffices for liveness)."""
        meter = self.metrics.meter(f"ordering.frontend.{FRONTEND_ID_BASE}.envelopes")
        return int(meter.total)


ServiceT = TypeVar("ServiceT", bound=BFTService)


class DeploymentScaffold:
    """What every builder stands up first: network, metrics registry
    and key registry."""

    def __init__(
        self,
        config: OrderingServiceConfig,
        sim: Optional[Simulator],
        observability: Optional[Any],
    ):
        self.config = config
        self.observability = observability
        self.sim = sim = sim or Simulator()
        self.streams = streams = RandomStreams(config.seed)
        latency = config.latency or ConstantLatency(0.0001)
        self.network = Network(
            sim, latency, default_bandwidth_bps=config.bandwidth_bps, streams=streams
        )
        # one registry per deployment: with a hub attached, its
        # counters and the always-on instruments share one name tree
        self.metrics = (
            observability.registry if observability is not None else MetricsRegistry()
        )
        scheme = SimulatedECDSA()
        if config.sign_cost is not None:
            scheme.sign_cost = config.sign_cost
        self.registry = KeyRegistry(scheme=scheme, rng=streams.stream("keys"))


class ServiceScaffold(DeploymentScaffold):
    """What both BFT builders add around their own node and frontend
    types: view, sites, channels, per-node CPUs (no side effects, so
    built up front) and the frontends' ingress gate."""

    def __init__(self, *args: Any):
        super().__init__(*args)
        config = self.config
        n = config.n
        processes = tuple(range(n))
        weights = binary_weights(processes, config.f, config.delta, config.vmax_holders)
        self.view = View(
            view_id=0,
            processes=processes,
            f=config.f,
            delta=config.delta,
            weights=weights,
        )
        self.node_sites = list(config.node_sites or ["lan"] * n)
        self.frontend_sites = list(
            config.frontend_sites or ["lan"] * config.num_frontends
        )
        if len(self.node_sites) != n:
            raise ValueError(f"need {n} node sites, got {len(self.node_sites)}")
        if len(self.frontend_sites) != config.num_frontends:
            raise ValueError(
                f"need {config.num_frontends} frontend sites, "
                f"got {len(self.frontend_sites)}"
            )
        self.channels = channel_map(config)
        self.cpus = [make_node_cpu(self.sim, config) for _ in range(n)]

    def frontend_gate(self) -> Dict[str, Any]:
        """Per-frontend AbsoluteMaxBytes ceilings and admission control."""
        config = self.config
        return {
            "max_envelope_bytes": {
                channel_id: cfg.absolute_max_bytes
                for channel_id, cfg in self.channels.items()
            },
            "admission": (
                AdmissionController(config.admission)
                if config.admission is not None
                else None
            ),
        }

    def add_frontends(
        self,
        make: Callable[[int], FrontendCore],
        on_registered: Callable[[FrontendCore], None],
    ) -> List[FrontendCore]:
        frontends = []
        for j in range(self.config.num_frontends):
            client_id = FRONTEND_ID_BASE + j
            frontend = make(client_id)
            self.network.register(client_id, frontend, site=self.frontend_sites[j])
            on_registered(frontend)
            frontends.append(frontend)
        return frontends

    def finish(
        self,
        service_cls: Type[ServiceT],
        replicas: List[Any],
        nodes: List[Any],
        frontends: List[FrontendCore],
    ) -> ServiceT:
        service = service_cls(
            sim=self.sim,
            network=self.network,
            config=self.config,
            registry=self.registry,
            view=self.view,
            replicas=replicas,
            nodes=nodes,
            frontends=frontends,
            metrics=self.metrics,
            cpus=self.cpus,
            observability=self.observability,
        )
        if self.observability is not None:
            self.observability.attach(service)
        return service


@dataclass
class OrderingService(BFTService):
    """The paper's deployment: BFT-SMaRt replicas and copy-matching
    frontends, reconfigurable at runtime."""

    def block_policy(self) -> BlockValidityPolicy:
        # frontends matched 2f+1 copies upstream; f+1 valid signatures
        # prove a correct node vouched for the merged block
        return SignatureCountPolicy(
            one_correct_size(self.config.f), self.registry, self.orderer_names
        )

    @property
    def leader_node(self) -> BFTOrderingNode:
        """Ordering node 0 -- where the paper measures throughput."""
        return self.nodes[0]

    def admin_proxy(self, admin_index: int = 0, site: Optional[str] = None) -> ServiceProxy:
        """A proxy for administrative (reconfiguration) commands."""
        proxy = ServiceProxy(
            self.sim,
            self.network,
            ADMIN_ID_BASE + admin_index,
            self.view,
            invoke_timeout=self.config.request_timeout * 2,
            register=False,
        )
        admin_site = site or (self.config.node_sites or ["lan"])[0]
        self.network.register(ADMIN_ID_BASE + admin_index, proxy, site=admin_site)
        return proxy

    # ------------------------------------------------------------------
    # runtime reconfiguration (paper §5.2)
    # ------------------------------------------------------------------
    def add_node(self, site: str = "lan"):
        """Add a new ordering node to the running cluster.

        Builds the machine (CPU, identity, app, replica), wires it to
        the network and frontends, orders the membership change through
        consensus, and -- once decided -- brings the node up to date by
        state transfer and points every frontend proxy at the new view.

        Returns ``(future, node)``; drive the simulator until the
        future resolves (e.g. ``service.sim.drain([future], ...)``).
        """
        from repro.smart.reconfiguration import ReconfigurationClient

        index = len(self.replicas)
        cpu = make_node_cpu(self.sim, self.config)
        self.cpus.append(cpu)
        identity = self.registry.enroll(f"orderer{index}", org=f"ordererorg{index}")
        node = BFTOrderingNode(
            sim=self.sim,
            network=self.network,
            name=identity.name,
            identity=identity,
            channels=channel_map(self.config),
            cpu=cpu,
            signing_workers=self.config.signing_workers,
            sign_cost=self.config.sign_cost,
            metrics=self.metrics,
            double_sign=self.config.double_sign,
            net_id=index,
        )
        current_view = self.replicas[0].view
        replica = ServiceReplica(
            sim=self.sim,
            network=self.network,
            replica_id=index,
            view=current_view,
            app=node,
            config=self.replicas[0].config,
            log=make_ordering_wal(self.config) if self.config.durable_wal else None,
            replier=ordering_replier,
        )
        self.network.register(index, replica, site=site)
        for frontend in self.frontends:
            node.register_frontend(frontend.name)
        self.nodes.append(node)
        self.replicas.append(replica)

        admin = self.admin_proxy(admin_index=index, site=site)
        future = ReconfigurationClient(admin).add_replica(index)

        def _activate(fut):
            try:
                fut.value
            except Exception:
                return
            new_view = self.replicas[0].view
            replica.view = new_view
            replica.state_transfer.start()
            for frontend in self.frontends:
                frontend.proxy.update_view(new_view)
                frontend.f = new_view.f

        future.add_callback(_activate)
        return future, node


@dataclass
class CFTService(OrderingDeployment):
    """Solo or Kafka: one orderer node, ``orderer0``, delivering blocks
    straight to peers (Kafka's brokers are ``nodes[0].cluster``)."""

    def submit(self, envelope: Envelope, frontend_index: int = 0) -> None:
        self.nodes[0].submit(envelope)

    def attach_peer(self, peer: Any) -> None:
        self.network.register(peer.name, peer)
        self.nodes[0].attach_receiver(peer.name)

    def block_policy(self) -> BlockValidityPolicy:
        return AcceptAllBlocks()

    def dissemination_bytes(self) -> int:
        """Bytes from orderer0 to its peers (not Kafka's ``Produce``s)."""
        orderer = self.nodes[0]
        sent = self.network.stats.bytes_by_src.get(orderer.name, {})
        return int(sum(sent.get(peer, 0) for peer in orderer.receivers))

    def delivery_latency(self) -> Histogram:
        return self.metrics.histogram(f"ordering.node.{self.nodes[0].name}.latency")


#: every backend :func:`build_ordering_service` stands up
ORDERERS = ("solo", "kafka", "bftsmart", "smartbft")
#: Kafka's broker ensemble size, fixed for every caller
KAFKA_BROKERS = 3


def _build_cft_service(
    config: OrderingServiceConfig, sim: Optional[Simulator], observability: Optional[Any]
) -> CFTService:
    """Stand up solo or Kafka with one orderer node, ``orderer0``."""
    from repro.fabric.orderers import KafkaCluster, KafkaOrderer, SoloOrderer

    # settings a crash-fault backend would otherwise ignore silently
    for name, value in (
        ("admission", config.admission),
        ("durable_wal", config.durable_wal),
        ("observability", observability),
    ):
        if value not in (None, False):
            raise ValueError(f"the {config.orderer} orderer does not support {name}")
    scaffold = DeploymentScaffold(config, sim, None)
    sim, network = scaffold.sim, scaffold.network
    identity = scaffold.registry.enroll("orderer0", org="ordererorg0")
    common = dict(
        cpu=make_node_cpu(sim, config),
        signing_workers=config.signing_workers,
        metrics=scaffold.metrics,
    )
    if config.orderer == "solo":
        orderer = SoloOrderer(sim, network, "orderer0", identity, config.channel, **common)
        network.register(orderer.name, orderer)
    else:
        cluster = KafkaCluster(sim, network, num_brokers=KAFKA_BROKERS)
        orderer = KafkaOrderer(
            sim, network, "orderer0", identity, cluster, config.channel, **common
        )
    return CFTService(
        sim=sim,
        network=network,
        config=config,
        registry=scaffold.registry,
        nodes=[orderer],
        metrics=scaffold.metrics,
    )


def build_ordering_service(
    config: Optional[OrderingServiceConfig] = None,
    sim: Optional[Simulator] = None,
    observability: Optional[Any] = None,
) -> Union[BFTService, CFTService]:
    """Stand up a complete ordering service on a fresh simulator.

    ``config.orderer`` picks the backend (one of :data:`ORDERERS`).
    ``observability`` optionally receives a
    :class:`repro.obs.Observability` hub; on the BFT backends it is
    attached to every component (network, replicas, nodes, frontends,
    proxies) so the deployment emits metrics and consensus spans as it
    runs.
    """
    config = config or OrderingServiceConfig()
    if config.orderer not in ORDERERS:
        raise ValueError(
            f"unknown orderer {config.orderer!r}; expected one of {ORDERERS}"
        )
    if config.orderer in ("solo", "kafka"):
        return _build_cft_service(config, sim, observability)
    if config.orderer == "smartbft":
        from repro.smart2.deployment import build_smartbft_service

        return build_smartbft_service(config, sim=sim, observability=observability)
    scaffold = ServiceScaffold(config, sim, observability)
    sim, network, view = scaffold.sim, scaffold.network, scaffold.view
    node_sites = scaffold.node_sites

    replica_config = ReplicaConfig(
        max_batch=config.max_batch,
        request_timeout=config.request_timeout,
        checkpoint_period=config.checkpoint_period,
        tentative_execution=config.tentative_execution,
    )

    # ordering nodes: CPU + identity + app + replica, one per machine
    nodes: List[BFTOrderingNode] = []
    replicas: List[ServiceReplica] = []
    for i in range(config.n):
        identity = scaffold.registry.enroll(f"orderer{i}", org=f"ordererorg{i}")
        node = BFTOrderingNode(
            sim=sim,
            network=network,
            name=identity.name,
            identity=identity,
            channels=scaffold.channels,
            cpu=scaffold.cpus[i],
            signing_workers=config.signing_workers,
            sign_cost=config.sign_cost,
            metrics=scaffold.metrics,
            double_sign=config.double_sign,
            net_id=i,
        )
        replica = ServiceReplica(
            sim=sim,
            network=network,
            replica_id=i,
            view=view,
            app=node,
            config=replica_config,
            log=make_ordering_wal(config) if config.durable_wal else None,
            replier=ordering_replier,
        )
        network.register(i, replica, site=node_sites[i])
        nodes.append(node)
        replicas.append(replica)

    # deterministic batch timeouts: each node submits TTCs through a
    # lightweight internal proxy (only when enabled)
    if config.enable_batch_timeout:
        for i, node in enumerate(nodes):
            ttc_proxy = ServiceProxy(
                sim, network, TTC_ID_BASE + i, view, register=False
            )
            # the TTC proxy lives on the node's machine
            network.register(TTC_ID_BASE + i, ttc_proxy, site=node_sites[i])
            node.ttc_submitter = (
                lambda ttc, proxy=ttc_proxy: proxy.invoke_async(ttc, size_bytes=24)
            )

    orderer_names = {node.name for node in nodes}

    def make_frontend(client_id: int) -> Frontend:
        proxy = ServiceProxy(
            sim,
            network,
            client_id,
            view,
            accept_tentative=config.tentative_execution,
            register=False,
            # retry backoff jitter comes from the deployment's seeded
            # streams -- never ambient randomness (DET002)
            rng=scaffold.streams.stream(f"proxy-backoff/{client_id}"),
        )
        return Frontend(
            sim=sim,
            network=network,
            name=client_id,
            proxy=proxy,
            f=config.f,
            registry=scaffold.registry,
            orderer_names=orderer_names,
            verify_signatures=config.verify_block_signatures,
            metrics=scaffold.metrics,
            **scaffold.frontend_gate(),
        )

    def register_with_nodes(frontend: FrontendCore) -> None:
        for node in nodes:
            node.register_frontend(frontend.name)

    frontends = scaffold.add_frontends(make_frontend, register_with_nodes)
    return scaffold.finish(OrderingService, replicas, nodes, frontends)
