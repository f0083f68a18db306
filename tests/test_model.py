"""Tests for the SINR model parameters (repro.sinr.model)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sinr.model import SINRParameters, log_star


class TestSINRParameters:
    def test_default_normalizes_power_to_noise_times_beta(self):
        params = SINRParameters.default()
        assert params.power == pytest.approx(params.noise * params.beta)

    def test_default_transmission_range_is_one(self):
        params = SINRParameters.default()
        assert params.transmission_range == pytest.approx(1.0)

    def test_communication_radius_scales_with_epsilon(self):
        params = SINRParameters(epsilon=0.25)
        assert params.communication_radius == pytest.approx(0.75)

    def test_explicit_power_is_respected(self):
        params = SINRParameters(power=8.0)
        assert params.power == 8.0
        assert params.transmission_range == pytest.approx((8.0 / 1.5) ** (1.0 / 3.0))

    def test_rejects_alpha_at_most_two(self):
        with pytest.raises(ValueError):
            SINRParameters(alpha=2.0)

    def test_rejects_beta_at_most_one(self):
        with pytest.raises(ValueError):
            SINRParameters(beta=1.0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            SINRParameters(noise=0.0)

    def test_rejects_epsilon_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SINRParameters(epsilon=0.0)
        with pytest.raises(ValueError):
            SINRParameters(epsilon=1.0)

    def test_with_epsilon_returns_modified_copy(self):
        params = SINRParameters.default()
        other = params.with_epsilon(0.1)
        assert other.epsilon == 0.1
        assert params.epsilon == 0.2

    def test_with_alpha_returns_modified_copy(self):
        params = SINRParameters.default()
        other = params.with_alpha(4.0)
        assert other.alpha == 4.0
        assert params.alpha == 3.0

    def test_received_power_decreases_with_distance(self):
        params = SINRParameters.default()
        assert params.received_power(0.5) > params.received_power(1.0) > params.received_power(2.0)

    def test_received_power_rejects_nonpositive_distance(self):
        params = SINRParameters.default()
        with pytest.raises(ValueError):
            params.received_power(0.0)

    def test_max_reception_distance_shrinks_with_interference(self):
        params = SINRParameters.default()
        assert params.max_reception_distance(0.0) == pytest.approx(1.0)
        assert params.max_reception_distance(1.0) < 1.0

    def test_gadget_interference_budget_positive_for_small_epsilon(self):
        params = SINRParameters(epsilon=0.05, beta=2.0)
        assert params.gadget_interference_budget() > 0

    def test_describe_mentions_key_parameters(self):
        text = SINRParameters.default().describe()
        assert "alpha" in text and "beta" in text and "eps" in text

    def test_parameters_are_hashable_and_frozen(self):
        params = SINRParameters.default()
        assert hash(params) == hash(SINRParameters.default())
        with pytest.raises(Exception):
            params.alpha = 5.0  # type: ignore[misc]

    @given(st.floats(min_value=2.1, max_value=6.0), st.floats(min_value=1.01, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_transmission_range_consistent_with_reception(self, alpha, beta):
        params = SINRParameters(alpha=alpha, beta=beta)
        at_range = params.received_power(params.transmission_range) / params.noise
        assert at_range == pytest.approx(params.beta, rel=1e-9)


class TestLogStar:
    def test_small_values(self):
        assert log_star(0) == 0
        assert log_star(1) == 0
        assert log_star(2) == 1

    def test_grows_very_slowly(self):
        assert log_star(16) == 3
        assert log_star(65536) == 4
        assert log_star(10.0**300) == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_star(-1)

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nondecreasing(self, value):
        assert log_star(value) >= log_star(value - 1)
