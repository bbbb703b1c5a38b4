"""Tests for workload generators, table rendering and the CLI."""

import pytest

from repro.bench.tables import (
    render_ablation,
    render_conclusion,
    render_figure6,
    render_figure7_panel,
    render_lan_sim,
)
from repro.bench.figures import AblationResult, LanSimResult
from repro.bench.workload import ClosedLoopClients, OpenLoopGenerator, envelope_stream
from repro.fabric.channel import ChannelConfig
from repro.ordering import OrderingServiceConfig, build_ordering_service


def small_service(block_size=5, num_frontends=2):
    config = OrderingServiceConfig(
        f=1,
        channel=ChannelConfig("ch0", max_message_count=block_size, batch_timeout=0.5),
        num_frontends=num_frontends,
        physical_cores=None,
        enable_batch_timeout=True,
    )
    return build_ordering_service(config)


class TestEnvelopeStream:
    def test_count_and_size(self):
        envelopes = list(envelope_stream("ch0", 256, 5))
        assert len(envelopes) == 5
        assert all(e.payload_size == 256 for e in envelopes)
        assert len({e.envelope_id for e in envelopes}) == 5


class TestOpenLoopGenerator:
    def test_rate_and_duration(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=100.0,
            duration=2.0,
        )
        generator.start()
        service.run(5.0)
        assert generator.submitted == pytest.approx(200, abs=3)
        meter = service.metrics.meter("ordering.node.orderer0.envelopes")
        assert meter.total == generator.submitted

    def test_round_robin_across_frontends(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=100.0,
            duration=1.0,
        )
        generator.start()
        service.run(3.0)
        submitted = [f.envelopes_submitted for f in service.frontends]
        assert abs(submitted[0] - submitted[1]) <= 1

    def test_stop(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=1000.0,
            duration=10.0,
        )
        generator.start()
        service.run(0.1)
        generator.stop()
        count = generator.submitted
        service.run(1.0)
        assert generator.submitted == count

    def test_invalid_rate(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=0.0,
            duration=1.0,
        )
        with pytest.raises(ValueError):
            generator.start()

    def test_stop_is_idempotent_and_sticky(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=500.0,
            duration=10.0,
        )
        generator.start()
        service.run(0.05)
        generator.stop()
        generator.stop()  # double stop is harmless
        count = generator.submitted
        service.run(1.0)
        assert generator.submitted == count

    def test_deterministic_arrival_sequence(self):
        """Same seed => byte-identical submission times and counts."""
        from repro.sim.randomness import RandomStreams

        def arrivals(seed):
            service = small_service()
            times = []
            original = service.frontends[0].submit

            def probe(envelope, _original=original, _times=times):
                _times.append(service.sim.now)
                return _original(envelope)

            service.frontends[0].submit = probe
            generator = OpenLoopGenerator(
                sim=service.sim,
                frontends=[service.frontends[0]],
                channel_id="ch0",
                envelope_size=100,
                rate_per_second=200.0,
                duration=0.5,
                jitter_fraction=0.3,
                streams=RandomStreams(seed),
            )
            generator.start()
            service.run(2.0)
            return times

        first = arrivals(7)
        assert len(first) > 50
        assert arrivals(7) == first
        assert arrivals(8) != first

    def test_unjittered_arrivals_are_evenly_spaced(self):
        service = small_service()
        times = []
        for frontend in service.frontends:
            original = frontend.submit

            def probe(envelope, _original=original):
                times.append(service.sim.now)
                return _original(envelope)

            frontend.submit = probe
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=100.0,
            duration=0.5,
        )
        generator.start()
        service.run(2.0)
        gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert gaps == {0.01}


class TestClosedLoopClients:
    def test_completes_all_envelopes(self):
        service = small_service(block_size=2, num_frontends=1)
        clients = ClosedLoopClients(
            sim=service.sim,
            frontend=service.frontends[0],
            channel_id="ch0",
            envelope_size=64,
            clients=4,
            max_envelopes=20,
        )
        clients.start()
        service.run(20.0)
        assert clients.done
        assert clients.completed == 20

    def test_bounded_concurrency(self):
        service = small_service(block_size=2, num_frontends=1)
        clients = ClosedLoopClients(
            sim=service.sim,
            frontend=service.frontends[0],
            channel_id="ch0",
            envelope_size=64,
            clients=3,
            max_envelopes=30,
        )
        clients.start()
        assert len(clients._outstanding) == 3
        service.run(30.0)
        assert clients.completed == 30

    def test_done_semantics(self):
        service = small_service(block_size=2, num_frontends=1)
        clients = ClosedLoopClients(
            sim=service.sim,
            frontend=service.frontends[0],
            channel_id="ch0",
            envelope_size=64,
            clients=2,
            max_envelopes=6,
        )
        assert not clients.done  # nothing completed yet
        clients.start()
        assert not clients.done  # submissions are in flight, not done
        service.run(20.0)
        assert clients.done
        assert clients.submitted == 6
        # done stays true and no extra submissions happen afterwards
        service.run(5.0)
        assert clients.done and clients.submitted == 6

    def test_clients_capped_by_max_envelopes(self):
        service = small_service(block_size=2, num_frontends=1)
        clients = ClosedLoopClients(
            sim=service.sim,
            frontend=service.frontends[0],
            channel_id="ch0",
            envelope_size=64,
            clients=10,
            max_envelopes=3,
        )
        clients.start()
        assert clients.submitted == 3
        assert len(clients._outstanding) == 3


class TestRendering:
    def test_render_figure6(self):
        text = render_figure6({1: {"measured": 800.0, "model": 808.0}})
        assert "807" in text or "800" in text
        assert "Figure 6" in text

    def test_render_figure7_panel(self):
        panel = {40: {1: 50000.0, 32: 15000.0}}
        text = render_figure7_panel(4, 10, panel)
        assert "4 orderers" in text
        assert "50.0" in text and "15.0" in text

    def test_render_lan_sim(self):
        result = LanSimResult(4, 10, 1024, 2, 25000.0, 22800.0, 22700.0, 22242.0)
        text = render_lan_sim([result])
        assert "22800" in text

    def test_render_conclusion(self):
        text = render_conclusion(
            {
                "bft_ordering_worst_case": 1986.0,
                "ethereum_theoretical_peak": 1000.0,
                "bitcoin_peak": 7.0,
                "speedup_vs_ethereum": 1.986,
                "speedup_vs_bitcoin": 283.7,
            }
        )
        assert "1986" in text and "Ethereum" in text

    def test_render_ablation(self):
        rows = [AblationResult(True, True, 0.278, 0.345)]
        text = render_ablation(rows)
        assert "278" in text


class TestCli:
    def test_figure6_via_cli(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--figure", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "8400" in out

    def test_figure7_via_cli(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--figure", "7", "--orderers", "4", "--block-size", "10"]) == 0
        out = capsys.readouterr().out
        assert "4 orderers, 10 envelopes/block" in out

    def test_eq1_via_cli(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--figure", "eq1"]) == 0
        out = capsys.readouterr().out
        assert "Equation 1" in out and "Ethereum" in out

    def test_bad_figure_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["--figure", "99"])


class TestServiceConfigValidation:
    def test_site_count_mismatch(self):
        config = OrderingServiceConfig(f=1, node_sites=["a", "b"])
        with pytest.raises(ValueError):
            build_ordering_service(config)

    def test_frontend_site_count_mismatch(self):
        config = OrderingServiceConfig(
            f=1, num_frontends=2, frontend_sites=["lan"]
        )
        with pytest.raises(ValueError):
            build_ordering_service(config)

    def test_n_derived_from_f_and_delta(self):
        assert OrderingServiceConfig(f=2).n == 7
        assert OrderingServiceConfig(f=1, delta=1).n == 5

    def test_leader_node_is_node_zero(self):
        service = build_ordering_service(
            OrderingServiceConfig(f=1, physical_cores=None)
        )
        assert service.leader_node is service.nodes[0]
