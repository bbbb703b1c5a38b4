"""Final hardening: regency rotation, multi-channel TTC, misc edges."""


from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering import OrderingServiceConfig, build_ordering_service
from tests.conftest import Cluster


class TestRegencyRotation:
    def test_leader_rotates_round_robin_across_failures(self):
        """Three successive leader crashes walk the leadership through
        replicas 1, 2, 3 of a 10-replica cluster."""
        cluster = Cluster(n=10, f=3, request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=4.0, max_retries=60)
        assert cluster.drain([proxy.invoke(1)], deadline=30.0)
        expected_total = 1
        for crash in (0, 1, 2):
            cluster.replicas[crash].crash()
            future = proxy.invoke(1)
            assert cluster.drain([future], deadline=120.0)
            expected_total += 1
        survivors = [r for r in cluster.replicas if not r.crashed]
        regencies = {r.regency for r in survivors}
        assert max(regencies) >= 3
        leader = survivors[0].view.leader_of(max(regencies))
        assert leader not in (0, 1, 2)
        alive_apps = [
            a for a, r in zip(cluster.apps, cluster.replicas) if not r.crashed
        ]
        assert all(a.total == expected_total for a in alive_apps)

    def test_regency_survives_idle_periods(self):
        cluster = Cluster(request_timeout=0.3)
        proxy = cluster.proxy()
        assert cluster.drain([proxy.invoke(1)])
        cluster.run(10.0)  # long idle stretch
        assert all(r.regency == 0 for r in cluster.replicas)
        assert cluster.drain([proxy.invoke(2)])


class TestMultiChannelTimeouts:
    def test_ttc_cuts_are_per_channel(self):
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("alpha", max_message_count=10, batch_timeout=0.3),
            extra_channels=[
                ChannelConfig("beta", max_message_count=10, batch_timeout=0.3)
            ],
            physical_cores=None,
            enable_batch_timeout=True,
        )
        service = build_ordering_service(config)
        blocks = {"alpha": 0, "beta": 0}

        def count(block):
            blocks[block.channel_id] += 1

        service.frontends[0].on_block.append(count)
        # partial batches on both channels: each must get its own TTC cut
        for _ in range(3):
            service.submit(Envelope.raw("alpha", 64))
        for _ in range(2):
            service.submit(Envelope.raw("beta", 64))
        service.run(5.0)
        assert blocks == {"alpha": 1, "beta": 1}

    def test_quiet_channel_not_cut_spuriously(self):
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("alpha", max_message_count=10, batch_timeout=0.3),
            extra_channels=[
                ChannelConfig("beta", max_message_count=10, batch_timeout=0.3)
            ],
            physical_cores=None,
            enable_batch_timeout=True,
        )
        service = build_ordering_service(config)
        for _ in range(3):
            service.submit(Envelope.raw("alpha", 64))
        service.run(5.0)
        beta_states = [n.get_state().get("beta") for n in service.nodes]
        assert all(state["next_number"] == 0 for state in beta_states)


class TestMiscEdges:
    def test_empty_block_never_produced(self):
        """TTC storms or timer races must never cut an empty block."""
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("ch0", max_message_count=3, batch_timeout=0.2),
            physical_cores=None,
            enable_batch_timeout=True,
        )
        service = build_ordering_service(config)
        delivered = []
        service.frontends[0].on_block.append(delivered.append)
        for burst in range(4):
            for _ in range(2):  # never fills a block by count
                service.submit(Envelope.raw("ch0", 64))
            service.run(1.0)
        assert all(len(block.envelopes) > 0 for block in delivered)
        assert sum(len(b.envelopes) for b in delivered) == 8

    def test_envelope_replay_across_frontends_not_double_ordered(self):
        """The same envelope pushed through two frontends is ordered
        once per submission stream (distinct requests), but the ledger
        keeps both copies distinguishable -- the replication layer
        dedupes per-client sequences, not envelope contents."""
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("ch0", max_message_count=2),
            num_frontends=2,
            physical_cores=None,
        )
        service = build_ordering_service(config)
        envelope = Envelope.raw("ch0", 64)
        service.submit(envelope, frontend_index=0)
        service.submit(envelope, frontend_index=1)
        service.run(3.0)
        # both submissions count as distinct ordering requests
        assert service.frontends[0].blocks_delivered == 1
        block_envelopes = service.metrics.meter("ordering.node.orderer0.envelopes").total
        assert block_envelopes == 2

    def test_view_with_processes_recomputes_f(self):
        from repro.smart.view import View

        view = View(0, tuple(range(4)), 1)
        grown = view.with_processes(tuple(range(7)))
        assert grown.f == 2
        shrunk = grown.with_processes(tuple(range(4)))
        assert shrunk.f == 1
        assert shrunk.view_id == 2
