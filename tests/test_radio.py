import random

import pytest
from hypothesis import given, strategies as st

from manetsim.config import SimConfig
from manetsim.errors import ConfigError, NoNeighbors
from manetsim.radio import Position, WaypointState, avg_mobility, waypoint_step
from radio_reference import (DegenerateDistance, HelloHistory, InsufficientSamples,
                             InvalidSignal, estimate_distance, friis_recv_power,
                             pairwise_mobility, record_hello)


def params(k=1.0, q=2):
    return SimConfig(friis_k=k, path_loss_q=q)


# ---- received power ----

def test_friis_identity():
    assert friis_recv_power(1.0, 1.0, params()) == 1.0


def test_friis_free_space_anchor():
    # 300 mW over 50 m at q=2: 300/2500
    assert friis_recv_power(300.0, 50.0, params()) == pytest.approx(0.12, abs=1e-12)


def test_friis_cubic_anchor():
    assert friis_recv_power(600.0, 10.0, params(k=2.0, q=3)) == pytest.approx(1.2, abs=1e-12)


def test_friis_rejects_zero_distance():
    with pytest.raises(DegenerateDistance):
        friis_recv_power(300.0, 0.0, params())


def test_friis_monotone_decreasing():
    p = params()
    powers = [friis_recv_power(400.0, d, p) for d in (1, 5, 20, 75, 100)]
    assert powers == sorted(powers, reverse=True)


def test_invalid_exponent_rejected():
    with pytest.raises(ConfigError, match="path_loss_q"):
        params(k=1.0, q=5).validate()


# ---- distance estimation ----

def test_estimate_anchor():
    assert estimate_distance(100.0, 4.0, params()) == pytest.approx(5.0, abs=1e-12)


def test_estimate_cubic_anchor():
    assert estimate_distance(600.0, 1.2, params(k=2.0, q=3)) == pytest.approx(10.0, rel=1e-12)


def test_estimate_rejects_nonpositive_signal():
    with pytest.raises(InvalidSignal):
        estimate_distance(100.0, 0.0, params())


@given(p=st.floats(300.0, 600.0), d=st.floats(0.1, 100.0),
       k=st.sampled_from([1.0, 2.0]), q=st.sampled_from([2, 3, 4]))
def test_friis_round_trip(p, d, k, q):
    r = params(k=k, q=q)
    back = estimate_distance(p, friis_recv_power(p, d, r), r)
    assert back == pytest.approx(d, rel=1e-9)


# ---- hello histories and mobility ----

def hist(dists, window=100):
    h = HelloHistory(neighbor_id=1, window=window)
    for d in dists:
        record_hello(h, d)
    return h


def test_record_hello_first_sample():
    h = hist([12.0])
    assert h.samples == [(1, 12.0)]


def test_record_hello_grows():
    assert len(hist([10.0, 11.0, 12.0]).dists) == 3


def test_window_evicts_and_rebases():
    h = hist(range(105), window=100)
    assert len(h.dists) == 100
    assert h.dists[0] == 5
    assert h.samples[0] == (1, 5)
    assert h.samples[-1] == (100, 104)


def test_pairwise_constant_distance_is_zero():
    assert pairwise_mobility(hist([10.0, 10.0, 10.0]), 0.01) == 0.0


def test_pairwise_anchor():
    # (14 - 10) / (3 * 0.01)
    assert pairwise_mobility(hist([10.0, 12.0, 14.0]), 0.01) == pytest.approx(4 / 0.03)


def test_pairwise_telescoping_cancellation():
    assert pairwise_mobility(hist([10.0, 15.0, 10.0]), 0.01) == 0.0


def test_pairwise_needs_two_samples():
    with pytest.raises(InsufficientSamples):
        pairwise_mobility(hist([10.0]), 0.01)


@given(dists=st.lists(st.floats(0.0, 500.0), min_size=2, max_size=40),
       t=st.floats(0.001, 1.0))
def test_pairwise_equals_telescoped_sum(dists, t):
    h = hist(dists)
    n = len(dists)
    stepwise = sum(dists[i] - dists[i - 1] for i in range(1, n)) / (n * t)
    assert pairwise_mobility(h, t) == pytest.approx(stepwise, abs=1e-9)
    if dists[0] == dists[-1]:
        assert pairwise_mobility(h, t) == 0.0


def test_avg_mobility():
    assert avg_mobility([5.0]) == 5.0
    assert avg_mobility([0.0, 0.0, 0.0]) == 0.0
    assert avg_mobility([10.0, 20.0, 30.0]) == 20.0


def test_avg_mobility_empty():
    with pytest.raises(NoNeighbors):
        avg_mobility([])


# ---- random waypoint ----

AREA = (500.0, 500.0)
SPEEDS = (10.0, 30.0)


def test_pause_decrements_without_moving():
    pos = Position(50.0, 50.0)
    state = WaypointState(Position(100.0, 100.0), 20.0, pause_remaining=0.5)
    waypoint_step(pos, state, 0.1, AREA, 1.0, SPEEDS, random.Random(0))
    assert (pos.x, pos.y) == (50.0, 50.0)
    assert state.pause_remaining == pytest.approx(0.4)


def test_linear_advance():
    pos = Position(0.0, 0.0)
    state = WaypointState(Position(100.0, 0.0), 20.0)
    waypoint_step(pos, state, 0.5, AREA, 1.0, SPEEDS, random.Random(0))
    assert pos.x == pytest.approx(10.0)
    assert pos.y == 0.0


def test_arrival_sets_pause():
    pos = Position(99.0, 0.0)
    state = WaypointState(Position(100.0, 0.0), 20.0)
    waypoint_step(pos, state, 0.05, AREA, 1.0, SPEEDS, random.Random(0))
    assert (pos.x, pos.y) == (100.0, 0.0)
    assert state.pause_remaining == pytest.approx(1.0)


def test_pause_expiry_redraws_target_and_speed():
    pos = Position(50.0, 50.0)
    state = WaypointState(Position(50.0, 50.0), 20.0, pause_remaining=0.05)
    waypoint_step(pos, state, 0.1, AREA, 1.0, SPEEDS, random.Random(7))
    assert (state.target.x, state.target.y) != (50.0, 50.0)
    assert SPEEDS[0] <= state.speed <= SPEEDS[1]


def test_trajectory_stays_in_bounds_and_is_seed_deterministic():
    def trajectory(seed):
        rng = random.Random(seed)
        pos = Position(250.0, 250.0)
        state = WaypointState(Position(10.0, 490.0), 25.0)
        points = []
        for _ in range(500):
            waypoint_step(pos, state, 0.1, AREA, 1.0, SPEEDS, rng)
            assert 0.0 <= pos.x <= AREA[0] and 0.0 <= pos.y <= AREA[1]
            points.append((pos.x, pos.y))
        return points

    assert trajectory(42) == trajectory(42)
    assert trajectory(42) != trajectory(43)


def test_distance_to():
    assert Position(0.0, 0.0).distance_to(Position(3.0, 4.0)) == 5.0
