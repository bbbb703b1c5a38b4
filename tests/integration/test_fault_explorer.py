"""Integration: the randomized fault-schedule explorer.

The acceptance bar for the fault layer: 25+ seeded schedules at
``f=1, n=4`` with zero invariant violations, and bit-for-bit
reproducibility -- the same seed must yield an identical fault trace
and identical final ledger digests.
"""

import hashlib

import pytest

from repro.faults import (
    CrashReplica,
    Drop,
    ExplorerConfig,
    FaultEvent,
    FloodClient,
    Match,
    explore,
    run_schedule,
    run_seed,
    sample_schedule,
    shrink_schedule,
)
from repro.faults.actions import CensorClients
from repro.faults.explorer import profile_named

pytestmark = pytest.mark.faults


class TestExploration:
    def test_25_seeds_zero_violations(self):
        cfg = ExplorerConfig(f=1)
        assert cfg.n == 4
        report = explore(seeds=25, cfg=cfg)
        failing = {r.seed: [str(v) for v in r.violations] for r in report.failures}
        assert report.ok, f"seeds with violations: {failing}"
        # every run delivered the full workload and healed in time
        for result in report.results:
            assert result.delivered >= result.submitted
            assert result.trace[-1].endswith("heal")

    def test_schedules_are_diverse(self):
        """The sampler actually explores: different seeds, different
        fault mixes."""
        descriptions = {
            tuple(e.describe() for e in sample_schedule(seed))
            for seed in range(25)
        }
        assert len(descriptions) >= 20


class TestReproducibility:
    def test_same_seed_same_trace_and_ledger(self):
        first = run_seed(11)
        second = run_seed(11)
        assert first.trace == second.trace
        assert first.trace_digest == second.trace_digest
        assert first.ledger_digest == second.ledger_digest
        assert first.frontend_digests == second.frontend_digests
        assert first.sim_time == second.sim_time

    def test_sampling_is_pure(self):
        one = [e.describe() for e in sample_schedule(19)]
        two = [e.describe() for e in sample_schedule(19)]
        assert one == two

    def test_different_seeds_diverge(self):
        assert run_seed(0).trace_digest != run_seed(3).trace_digest


class TestShrinking:
    def test_failing_schedule_minimized(self):
        """One fatal event (total inbound drop that outlives the run's
        deadline, swallowing the fire-and-forget workload) plus two
        harmless decoys: the shrinker must strip the decoys and keep a
        still-failing singleton."""
        cfg = ExplorerConfig(deadline=8.0, heal_at=30.0)
        fatal = FaultEvent(
            at=0.05,
            action=Drop(Match(dst=tuple(range(4)))),  # everything inbound
        )
        decoys = [
            FaultEvent(at=0.3, action=Drop(Match(src=2, dst=3), rate=0.1),
                       duration=0.5),
            FaultEvent(at=0.4, action=CrashReplica(3), duration=0.4),
        ]
        events = [fatal] + decoys
        broken = run_schedule(5, events, cfg)
        assert not broken.ok
        minimal, result = shrink_schedule(5, events, cfg)
        assert not result.ok
        assert len(minimal) == 1
        assert minimal[0] is fatal

    def test_passing_schedule_not_shrunk_to_failure(self):
        cfg = ExplorerConfig()
        events = sample_schedule(0, cfg)
        minimal, result = shrink_schedule(0, events, cfg, max_runs=4)
        # shrinking a passing schedule immediately converges on itself
        assert [e.describe() for e in minimal] == [e.describe() for e in events]


#: What each non-default profile's leading event must look like.
LEAD_CHECKS = {
    "recovery": lambda a: isinstance(a, CrashReplica) and a.amnesia,
    "smartbft": lambda a: isinstance(a, CensorClients),
    "overload": lambda a: isinstance(a, FloodClient),
}


@pytest.mark.parametrize("profile", sorted(LEAD_CHECKS))
class TestProfiles:
    """The non-default schedule spaces (``--profile NAME``): amnesiac
    restarts against durable WALs, leader censorship against SmartBFT,
    and client floods against the admission-controlled service (judged
    by the no-silent-drop invariant instead of count-based liveness)."""

    def test_seeds_zero_violations(self, profile):
        report = explore(seeds=10, cfg=ExplorerConfig(profile=profile))
        failing = {r.seed: [str(v) for v in r.violations] for r in report.failures}
        assert report.ok, f"seeds with violations: {failing}"
        if profile_named(profile).admission is None:
            for result in report.results:
                assert result.delivered >= result.submitted

    def test_every_schedule_has_lead(self, profile):
        cfg = ExplorerConfig(profile=profile)
        for seed in range(10):
            events = sample_schedule(seed, cfg)
            assert any(
                LEAD_CHECKS[profile](e.action) for e in events
            ), f"seed {seed} lacks the {profile_named(profile).lead} lead"

    def test_profile_is_reproducible(self, profile):
        cfg = ExplorerConfig(profile=profile)
        first = run_seed(7, cfg)
        second = run_seed(7, cfg)
        assert first.trace == second.trace
        assert first.ledger_digest == second.ledger_digest

    def test_default_profile_unperturbed(self, profile):
        """Sampling another profile's stream must not change the default
        profile's schedules."""
        default = [e.describe() for e in sample_schedule(3)]
        _ = sample_schedule(3, ExplorerConfig(profile=profile))
        assert [e.describe() for e in sample_schedule(3)] == default


#: sha256 over ``(seed, at, duration, describe())`` of seeds 0-49, per
#: (profile, f), computed before the samplers became one table-driven
#: sampler.  A change here means historical seeds no longer replay.
PINNED_SCHEDULES = {
    ("default", 1): "5c20a6a4dbcc448f85f6a373da1511f6282127552268890051dcac38e19c554d",
    ("default", 2): "6217ab2509aebcdef3db14d5669cd59cadca345f7c07c4ccd9a9589911c796d1",
    ("recovery", 1): "0c01bdae41735b0756637ca149339cb56159d006a9ded96c2f6ef67048707bc7",
    ("recovery", 2): "80a8eb7637c90510f83c46295da7f36d8ff777ca8927a27ee757040b63db0217",
    ("smartbft", 1): "183997feabac943e38b059050ee9c0334339ff7b1957c50bc66f57c3b18fb5d2",
    ("smartbft", 2): "f25929a0be1c80c50e96df4ad8cafa4c270763616e76f383ac0b86fecc06df75",
    ("overload", 1): "5bf268470521b474ab7dc91616108358e8becb661ea49f5065ff5794737e1eff",
    ("overload", 2): "0b638f1359cdafef957dc8b563e5ab51d1d521e25ec2a928f667fc9b757d11ae",
}


class TestScheduleSpace:
    @pytest.mark.parametrize("profile,f", sorted(PINNED_SCHEDULES))
    def test_schedules_pinned(self, profile, f):
        cfg = ExplorerConfig(f=f, profile=profile)
        digest = hashlib.sha256()
        for seed in range(50):
            for e in sample_schedule(seed, cfg):
                digest.update(repr((seed, e.at, e.duration, e.describe())).encode())
        assert digest.hexdigest() == PINNED_SCHEDULES[(profile, f)]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="smartBFT.*default, recovery"):
            ExplorerConfig(profile="smartBFT")
