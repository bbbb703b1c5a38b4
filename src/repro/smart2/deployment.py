"""Deployment builder for the SmartBFT-style ordering service.

Mirrors :func:`repro.ordering.service.build_ordering_service` -- same
configuration object, same :class:`~repro.ordering.service.ServiceScaffold`
(network/crypto/metrics wiring), same probe surface
(:class:`~repro.ordering.service.BFTService`) -- so benchmarks, the
fault explorer and the conformance battery drive either backend through
one interface.  Selected with ``OrderingServiceConfig(orderer="smartbft")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.fabric.blockpolicy import BlockValidityPolicy, SignatureQuorumPolicy
from repro.ordering.service import (
    BFTService,
    OrderingServiceConfig,
    ServiceScaffold,
    make_ordering_wal,
)
from repro.sim.core import Simulator
from repro.smart2.frontend import QuorumFrontend
from repro.smart2.node import SmartBFTNode


@dataclass
class SmartBFTService(BFTService):
    """A fully wired SmartBFT-style deployment.

    ``replicas`` and ``nodes`` name the same objects: a SmartBFT node
    *is* its own replica (consensus runs on blocks directly), but both
    aliases keep the fault layer and the observability hub -- which
    iterate ``service.replicas`` and ``service.nodes`` respectively --
    working unchanged.
    """

    def block_policy(self) -> BlockValidityPolicy:
        return SignatureQuorumPolicy(
            self.config.f, registry=self.registry, orderer_names=self.orderer_names
        )


def build_smartbft_service(
    config: Optional[OrderingServiceConfig] = None,
    sim: Optional[Simulator] = None,
    observability: Optional[Any] = None,
) -> SmartBFTService:
    """Stand up a complete SmartBFT-style ordering service."""
    config = config or OrderingServiceConfig()
    scaffold = ServiceScaffold(config, sim, observability)
    sim, network, view = scaffold.sim, scaffold.network, scaffold.view

    identities = [
        scaffold.registry.enroll(f"orderer{i}", org=f"ordererorg{i}")
        for i in range(config.n)
    ]
    peer_names = {i: identity.name for i, identity in enumerate(identities)}

    nodes: List[SmartBFTNode] = []
    for i, identity in enumerate(identities):
        node = SmartBFTNode(
            sim=sim,
            network=network,
            replica_id=i,
            name=identity.name,
            identity=identity,
            registry=scaffold.registry,
            membership=view,
            channels=scaffold.channels,
            peer_names=peer_names,
            log=make_ordering_wal(config) if config.durable_wal else None,
            cpu=scaffold.cpus[i],
            signing_workers=config.signing_workers,
            sign_cost=config.sign_cost,
            metrics=scaffold.metrics,
            request_timeout=config.request_timeout,
            heartbeat_interval=config.request_timeout / 4,
        )
        network.register(i, node, site=scaffold.node_sites[i])
        nodes.append(node)

    def make_frontend(client_id: int) -> QuorumFrontend:
        return QuorumFrontend(
            sim=sim,
            network=network,
            name=client_id,
            view=view,
            registry=scaffold.registry,
            node_names=peer_names,
            metrics=scaffold.metrics,
            request_timeout=config.request_timeout,
            **scaffold.frontend_gate(),
        )

    frontends = scaffold.add_frontends(make_frontend, QuorumFrontend.start)
    return scaffold.finish(SmartBFTService, nodes, nodes, frontends)
