"""Unit tests for views, weights and quorum math."""

import pytest

from repro.smart.view import (
    View,
    binary_weights,
    classic_quorum,
    max_faults,
)
from repro.smart.wheat import optimal_vmax_assignment, wheat_view


class TestClassicQuorum:
    @pytest.mark.parametrize(
        "n,f,expected", [(4, 1, 3), (7, 2, 5), (10, 3, 7), (5, 1, 4)]
    )
    def test_values(self, n, f, expected):
        assert classic_quorum(n, f) == expected


class TestMaxFaults:
    @pytest.mark.parametrize("n,delta,f", [(4, 0, 1), (7, 0, 2), (10, 0, 3), (5, 1, 1)])
    def test_values(self, n, delta, f):
        assert max_faults(n, delta) == f

    def test_too_small(self):
        with pytest.raises(ValueError):
            max_faults(0, 1)


class TestBinaryWeights:
    def test_delta_zero_all_ones(self):
        weights = binary_weights((0, 1, 2, 3), f=1, delta=0)
        assert all(w == 1.0 for w in weights.values())

    def test_paper_configuration(self):
        """5 replicas, f=1, delta=1: two get Vmax=2, three get Vmin=1."""
        weights = binary_weights(tuple(range(5)), f=1, delta=1, vmax_holders=(0, 1))
        assert weights[0] == weights[1] == 2.0
        assert weights[2] == weights[3] == weights[4] == 1.0

    def test_default_holders_first_2f(self):
        weights = binary_weights(tuple(range(5)), f=1, delta=1)
        assert weights[0] == 2.0 and weights[1] == 2.0

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError):
            binary_weights((0, 1, 2, 3), f=1, delta=1)

    def test_wrong_holder_count_rejected(self):
        with pytest.raises(ValueError):
            binary_weights(tuple(range(5)), f=1, delta=1, vmax_holders=(0,))

    def test_unknown_holder_rejected(self):
        with pytest.raises(ValueError):
            binary_weights(tuple(range(5)), f=1, delta=1, vmax_holders=(0, 99))

    def test_fractional_vmax(self):
        weights = binary_weights(tuple(range(8)), f=2, delta=1)
        assert max(weights.values()) == pytest.approx(1.5)


class TestView:
    def test_classic_view_quorum(self):
        view = View(0, (0, 1, 2, 3), 1)
        assert view.has_quorum({0, 1, 2})
        assert not view.has_quorum({0, 1})

    def test_duplicate_votes_do_not_count(self):
        view = View(0, (0, 1, 2, 3), 1)
        assert not view.has_quorum([0, 0, 0])

    def test_n7_f2(self):
        view = View(0, tuple(range(7)), 2)
        assert view.has_quorum(set(range(5)))
        assert not view.has_quorum(set(range(4)))

    def test_n10_f3(self):
        view = View(0, tuple(range(10)), 3)
        assert view.has_quorum(set(range(7)))
        assert not view.has_quorum(set(range(6)))

    def test_wheat_fast_quorum(self):
        """Oregon+Virginia (Vmax) plus any third replica suffices."""
        view = wheat_view(0, tuple(range(5)), f=1, delta=1, vmax_holders=(0, 1))
        assert view.has_quorum({0, 1, 2})
        assert not view.has_quorum({0, 1})
        assert not view.has_quorum({2, 3, 4})  # three Vmin are not enough

    def test_wheat_slow_quorum_needs_four(self):
        view = wheat_view(0, tuple(range(5)), f=1, delta=1, vmax_holders=(0, 1))
        assert view.has_quorum({1, 2, 3, 4})

    def test_uniform_weights_with_delta_need_classic_quorum(self):
        """Safety check: uniform weights over 3f+1+delta replicas must
        require ceil((n+f+1)/2) = 4 of 5 replicas."""
        view = View(0, tuple(range(5)), 1, delta=1, weights={i: 1.0 for i in range(5)})
        assert not view.has_quorum({0, 1, 2})
        assert view.has_quorum({0, 1, 2, 3})

    def test_any_two_quorums_intersect_in_correct_replica(self):
        """The fundamental BFT property, brute-forced for the paper's
        weighted configuration."""
        import itertools

        view = wheat_view(0, tuple(range(5)), f=1, delta=1, vmax_holders=(0, 1))
        quorums = [
            set(combo)
            for size in range(1, 6)
            for combo in itertools.combinations(range(5), size)
            if view.has_quorum(set(combo))
        ]
        for q1 in quorums:
            for q2 in quorums:
                overlap_weight = sum(view.weights[p] for p in q1 & q2)
                assert overlap_weight > view.f * view.vmax

    def test_liveness_without_f_heaviest(self):
        """The f heaviest replicas failing must leave a live quorum."""
        view = wheat_view(0, tuple(range(5)), f=1, delta=1, vmax_holders=(0, 1))
        survivors = {1, 2, 3, 4}  # replica 0 (Vmax) failed
        assert view.has_quorum(survivors)

    def test_quorum_threshold_values(self):
        """docs/PROTOCOLS.md's rule: uniform weights give the classic
        ceil((n+f+1)/2) quorum; WHEAT's binary weights give the paper's
        Qv = 2f*Vmax + 1."""
        view = View(0, tuple(range(7)), 2)
        assert view.quorum_threshold == pytest.approx((7 + 2 * 1.0) / 2)
        assert classic_quorum(7, 2) == 5 > view.quorum_threshold > 4
        wheat = wheat_view(0, tuple(range(5)), f=1, delta=1, vmax_holders=(0, 1))
        assert wheat.quorum_threshold == pytest.approx((7.0 + 1 * 2.0) / 2)
        assert 2 * wheat.f * wheat.vmax + 1 == 5 > wheat.quorum_threshold

    def test_leader_rotation(self):
        view = View(0, (0, 1, 2, 3), 1)
        assert [view.leader_of(r) for r in range(5)] == [0, 1, 2, 3, 0]

    def test_reply_quorum_final_needs_one_correct(self):
        view = View(0, (0, 1, 2, 3), 1)
        assert not view.is_reply_quorum(1.0, tentative=False)
        assert view.is_reply_quorum(2.0, tentative=False)

    def test_reply_quorum_tentative_needs_full_quorum(self):
        view = View(0, (0, 1, 2, 3), 1)
        assert not view.is_reply_quorum(2.0, tentative=True)
        assert view.is_reply_quorum(3.0, tentative=True)

    def test_view_validation(self):
        with pytest.raises(ValueError):
            View(0, (0, 1, 2), 1)  # n too small
        with pytest.raises(ValueError):
            View(0, (0, 0, 1, 2), 1)  # duplicate ids
        with pytest.raises(ValueError):
            View(0, (0, 1, 2, 3), 1, weights={0: 1.0})  # missing weights

    def test_with_processes_derives_successor(self):
        view = View(0, (0, 1, 2, 3), 1)
        successor = view.with_processes((0, 1, 2, 3, 4, 5, 6))
        assert successor.view_id == 1
        assert successor.f == 2

    def test_total_weight(self):
        view = wheat_view(0, tuple(range(5)), f=1, delta=1)
        assert view.total_weight == pytest.approx(7.0)


class TestOptimalAssignment:
    def test_picks_best_connected(self):
        rtt = {
            (0, 1): 0.01, (0, 2): 0.01, (0, 3): 0.3, (0, 4): 0.3,
            (1, 2): 0.01, (1, 3): 0.3, (1, 4): 0.3,
            (2, 3): 0.3, (2, 4): 0.3,
            (3, 4): 0.3,
        }
        holders = optimal_vmax_assignment(rtt, tuple(range(5)), f=1)
        assert set(holders) <= {0, 1, 2}
        assert len(holders) == 2
