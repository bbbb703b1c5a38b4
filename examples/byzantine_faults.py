#!/usr/bin/env python
"""Fault injection: what the *Byzantine* in BFT buys you.

Three attacks against a 4-node ordering service (f = 1):

1. an ordering node disseminates corrupted blocks -- frontends, which
   wait for 2f+1 matching copies, never accept them;
2. the leader crashes mid-stream -- the synchronization phase elects a
   new leader and ordering resumes;
3. for contrast, the same corrupted-consumer attack forks the
   crash-fault-tolerant Kafka orderer, which trusts its brokers.

Run:  python examples/byzantine_faults.py
"""

from repro import OrderingServiceConfig, build_ordering_service
from repro.fabric import ChannelConfig
from repro.fabric.api import BlockDelivery
from repro.fabric.block import make_block
from repro.fabric.envelope import Envelope


def attack_1_corrupt_blocks() -> None:
    print("attack 1: ordering node 3 sends corrupted blocks to frontends")
    service = build_ordering_service(
        OrderingServiceConfig(
            f=1, channel=ChannelConfig("ch0", max_message_count=10),
            physical_cores=None,
        )
    )

    def corrupt(src, dst, payload):
        if isinstance(payload, BlockDelivery) and payload.source == "orderer3":
            forged = make_block(
                payload.block.number, b"\xbd" * 32,
                [Envelope.raw("ch0", 666)], "ch0",
            )
            forged.signatures["orderer3"] = b"\x00" * 64
            return BlockDelivery(block=forged, source="orderer3")
        return payload

    service.network.add_filter(corrupt)
    for _ in range(30):
        service.submit(Envelope.raw("ch0", 512))
    service.run(5.0)
    frontend = service.frontends[0]
    meter = service.metrics.meter(f"ordering.frontend.{frontend.name}.envelopes")
    delivered = meter.total
    print(f"  frontend delivered {frontend.blocks_delivered} blocks / "
          f"{delivered:.0f} envelopes -- all genuine;")
    print("  the forged copies never reached 2f+1 matches.\n")
    assert frontend.blocks_delivered == 3 and delivered == 30


def attack_2_leader_crash() -> None:
    print("attack 2: the consensus leader crashes mid-stream")
    service = build_ordering_service(
        OrderingServiceConfig(
            f=1, channel=ChannelConfig("ch0", max_message_count=10),
            physical_cores=None, request_timeout=0.5,
        )
    )
    for _ in range(10):
        service.submit(Envelope.raw("ch0", 512))
    service.run(2.0)
    print(f"  blocks before crash: {service.frontends[0].blocks_delivered}")
    service.crash_node(0)
    for _ in range(10):
        service.submit(Envelope.raw("ch0", 512))
    service.run(20.0)
    survivors = service.replicas[1:]
    print(f"  blocks after crash:  {service.frontends[0].blocks_delivered} "
          f"(regency advanced to {survivors[0].regency}, new leader elected)\n")
    assert service.frontends[0].blocks_delivered == 2


def attack_3_kafka_forks() -> None:
    print("attack 3 (contrast): a Byzantine Kafka broker forks the CFT orderer")
    from repro.crypto.keys import KeyRegistry
    from repro.crypto.signatures import SimulatedECDSA
    from repro.fabric.orderers import KafkaCluster, KafkaOrderer
    from repro.fabric.orderers.kafka import Consume
    from repro.sim import ConstantLatency, Network, Simulator

    sim = Simulator()
    network = Network(sim, ConstantLatency(0.0005))
    registry = KeyRegistry(scheme=SimulatedECDSA())
    channel = ChannelConfig("ch0", max_message_count=2, batch_timeout=0.5)
    cluster = KafkaCluster(sim, network, num_brokers=3)
    orderers = [
        KafkaOrderer(sim, network, f"korderer{i}", registry.enroll(f"korderer{i}"),
                     cluster, channel)
        for i in range(2)
    ]

    poison = Envelope.raw("ch0", 66)

    def equivocate(src, dst, payload):
        if (isinstance(payload, Consume) and src == cluster.leader_name
                and dst == "korderer1"):
            return Consume(payload.offset, poison, 66)
        return payload

    network.add_filter(equivocate)
    for _ in range(4):
        orderers[0].submit(Envelope.raw("ch0", 512))
    sim.run(until=2.0)
    forked = orderers[0].previous_hash != orderers[1].previous_hash
    print(f"  orderer chains diverged: {forked}")
    print("  the Kafka design trusts brokers; one Byzantine broker splits the")
    print("  blockchain -- exactly the gap the paper's BFT service closes.")
    assert forked


def main() -> None:
    attack_1_corrupt_blocks()
    attack_2_leader_crash()
    attack_3_kafka_forks()


if __name__ == "__main__":
    main()
