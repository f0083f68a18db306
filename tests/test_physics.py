"""Tests for the SINR reception physics (the dense backend's Equation 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sinr.backends import DenseMatrixBackend
from repro.sinr.model import SINRParameters


def make_engine(positions, **kwargs) -> DenseMatrixBackend:
    return DenseMatrixBackend(np.array(positions, dtype=float), SINRParameters(**kwargs))


class TestBasicReception:
    def test_isolated_transmitter_heard_within_range(self):
        engine = make_engine([[0.0, 0.0], [0.9, 0.0]])
        receptions = engine.receptions([0])
        assert 1 in receptions
        assert receptions[1].sender == 0
        assert receptions[1].sinr >= engine.params.beta

    def test_isolated_transmitter_not_heard_beyond_range(self):
        engine = make_engine([[0.0, 0.0], [1.2, 0.0]])
        assert engine.receptions([0]) == {}

    def test_transmitter_does_not_receive(self):
        engine = make_engine([[0.0, 0.0], [0.5, 0.0]])
        receptions = engine.receptions([0, 1])
        assert 0 not in receptions and 1 not in receptions

    def test_two_distant_transmitters_both_heard_locally(self):
        engine = make_engine([[0.0, 0.0], [0.3, 0.0], [30.0, 0.0], [30.3, 0.0]])
        receptions = engine.receptions([0, 2])
        assert receptions[1].sender == 0
        assert receptions[3].sender == 2

    def test_nearby_equal_transmitters_jam_each_other(self):
        engine = make_engine([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
        # Nodes 0 and 2 are symmetric w.r.t. the listener at index 1.
        receptions = engine.receptions([0, 2], listeners=[1])
        assert 1 not in receptions

    def test_beta_greater_than_one_gives_single_decoded_sender(self):
        rng = np.random.default_rng(0)
        engine = make_engine(rng.uniform(0, 2, size=(12, 2)))
        receptions = engine.receptions(list(range(6)))
        for reception in receptions.values():
            assert reception.sinr >= engine.params.beta
        # at most one sender decoded per listener is implied by the mapping type;
        # additionally no listener should be a transmitter
        assert all(listener >= 6 for listener in receptions)

    def test_empty_transmitter_set(self):
        engine = make_engine([[0.0, 0.0], [0.5, 0.0]])
        assert engine.receptions([]) == {}

    def test_listeners_restriction(self):
        engine = make_engine([[0.0, 0.0], [0.5, 0.0], [0.6, 0.1]])
        receptions = engine.receptions([0], listeners=[2])
        assert set(receptions) <= {2}


class TestSINRValues:
    def test_sinr_formula_matches_manual_computation(self):
        engine = make_engine([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        params = engine.params
        signal = params.power / 1.0**params.alpha
        interference = params.power / 1.0**params.alpha  # node 2 is at distance 1 from node 1
        expected = signal / (params.noise + interference)
        assert engine.sinr(0, 1, [0, 2]) == pytest.approx(expected)

    def test_sinr_requires_sender_in_transmitters(self):
        engine = make_engine([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            engine.sinr(0, 1, [1])

    def test_interference_at_sums_gains(self):
        engine = make_engine([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        params = engine.params
        expected = params.power / 1.0**params.alpha + params.power / 2.0**params.alpha
        assert engine.interference_at(1, [0, 2]) == pytest.approx(expected)

    def test_hears_alone_matches_transmission_range(self):
        engine = make_engine([[0.0, 0.0], [0.99, 0.0], [1.5, 0.0]])
        assert engine.hears_alone(0, 1)
        assert not engine.hears_alone(0, 2)
        assert not engine.hears_alone(0, 0)

    def test_gain_symmetric_for_uniform_power(self):
        engine = make_engine([[0.0, 0.0], [0.7, 0.3]])
        assert engine.gain(0, 1) == pytest.approx(engine.gain(1, 0))

    def test_positions_are_read_only(self):
        engine = make_engine([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            engine.positions[0, 0] = 5.0


class TestMonotonicityProperties:
    @given(st.floats(min_value=0.1, max_value=0.95), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_closer_receiver_has_higher_sinr(self, d1, extra):
        d2 = d1 + extra
        engine = make_engine([[0.0, 0.0], [d1, 0.0], [d2, 0.0], [5.0, 5.0]])
        sinr_near = engine.sinr(0, 1, [0, 3])
        sinr_far = engine.sinr(0, 2, [0, 3])
        assert sinr_near >= sinr_far

    @given(st.floats(min_value=1.5, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_more_interferers_never_help(self, interferer_distance):
        engine = make_engine(
            [[0.0, 0.0], [0.8, 0.0], [interferer_distance, 0.0], [0.0, interferer_distance]]
        )
        sinr_single = engine.sinr(0, 1, [0, 2])
        sinr_double = engine.sinr(0, 1, [0, 2, 3])
        assert sinr_double <= sinr_single + 1e-12

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_reception_count_at_most_listeners(self, n):
        rng = np.random.default_rng(n)
        engine = make_engine(rng.uniform(0, 3, size=(n, 2)))
        transmitters = list(range(0, n, 2))
        receptions = engine.receptions(transmitters)
        listeners = set(range(n)) - set(transmitters)
        assert set(receptions) <= listeners


class TestEngineValidation:
    def test_rejects_bad_position_shape(self):
        with pytest.raises(ValueError):
            DenseMatrixBackend(np.zeros((3, 3)), SINRParameters.default())

    def test_size_property(self):
        engine = make_engine([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert engine.size == 3
