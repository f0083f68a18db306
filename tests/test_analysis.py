"""Tests for the analysis helpers (validation, complexity fits, reporting)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ExperimentTable,
    cluster_members,
    cluster_radius,
    clusters_meeting_ball,
    clustering_bound,
    comparison_summary,
    crossover_point,
    density_of_subset,
    global_broadcast_bound,
    local_broadcast_bound,
    lower_bound_shape,
    max_cluster_size,
    normalized_against,
    power_law_exponent,
    ratio_spread,
    render_report,
    validate_clustering,
)
from repro.simulation import DeliveryLedger
from repro.sinr import deployment


class TestValidation:
    def test_cluster_members_groups_by_cluster(self):
        groups = cluster_members({1: 10, 2: 10, 3: 20})
        assert groups == {10: [1, 2], 20: [3]}

    def test_cluster_radius_zero_for_singletons(self):
        network = deployment.line(3)
        assert cluster_radius(network, [network.uids[0]]) == 0.0

    def test_cluster_radius_of_adjacent_pair(self):
        network = deployment.line(2)
        radius = cluster_radius(network, network.uids)
        assert radius == pytest.approx(0.9 * network.params.communication_radius)

    def test_clusters_meeting_ball_counts_distinct_clusters(self):
        network = deployment.line(3)
        cluster_of = {network.uids[0]: 1, network.uids[1]: 2, network.uids[2]: 3}
        count = clusters_meeting_ball(network, cluster_of, network.uids[1], radius=1.0)
        assert count == 3

    def test_validate_clustering_flags_oversized_clusters(self):
        network = deployment.line(6)
        cluster_of = {uid: 1 for uid in network.uids}  # everything in one long cluster
        report = validate_clustering(network, cluster_of, max_radius=1.0)
        assert not report.valid_radius
        assert report.cluster_count == 1

    def test_validate_clustering_accepts_singletons(self):
        network = deployment.line(4)
        cluster_of = {uid: uid for uid in network.uids}
        report = validate_clustering(network, cluster_of, max_radius=1.0)
        assert report.valid_radius
        assert report.singleton_clusters == 4

    def test_density_of_subset(self):
        network = deployment.dense_ball(10, radius=0.3, seed=1)
        assert density_of_subset(network, network.uids) == 10
        assert density_of_subset(network, []) == 0

    def test_max_cluster_size_with_subset(self):
        cluster_of = {1: 1, 2: 1, 3: 1, 4: 2}
        assert max_cluster_size(cluster_of) == 3
        assert max_cluster_size(cluster_of, subset={3, 4}) == 1

    def test_local_broadcast_served_reports_missing_pairs(self):
        network = deployment.line(3)
        delivered = DeliveryLedger()
        senders, receivers = delivered.missing(network)
        assert delivered.served_fraction(network) < 1.0
        assert len(senders) == len(receivers) == 4  # two edges, both directions


class TestComplexityFits:
    def test_power_law_recovers_exponent(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [5.0 * x**1.5 for x in xs]
        fit = power_law_exponent(xs, ys)
        assert fit.exponent == pytest.approx(1.5, abs=1e-6)
        assert fit.coefficient == pytest.approx(5.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(32.0) == pytest.approx(5.0 * 32**1.5, rel=1e-6)

    def test_power_law_rejects_bad_input(self):
        with pytest.raises(ValueError):
            power_law_exponent([1.0], [1.0])
        with pytest.raises(ValueError):
            power_law_exponent([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            power_law_exponent([1.0, 2.0], [1.0])

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.5, max_value=100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_power_law_exact_on_synthetic_data(self, exponent, coefficient):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [coefficient * x**exponent for x in xs]
        fit = power_law_exponent(xs, ys)
        assert fit.exponent == pytest.approx(exponent, abs=1e-6)

    def test_normalized_against_and_ratio_spread(self):
        ratios = normalized_against([10.0, 20.0, 40.0], [1.0, 2.0, 4.0])
        assert ratios == pytest.approx([10.0, 10.0, 10.0])
        assert ratio_spread(ratios) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            normalized_against([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            normalized_against([1.0], [0.0])

    def test_reference_shapes_are_monotone(self):
        assert local_broadcast_bound(16, 256) > local_broadcast_bound(8, 256)
        assert global_broadcast_bound(10, 8, 256) > global_broadcast_bound(5, 8, 256)
        assert clustering_bound(16, 256) > clustering_bound(4, 256)
        assert lower_bound_shape(10, 16, 3.0) < 10 * 16

    def test_crossover_point(self):
        xs = [1, 2, 3, 4]
        a = [1, 2, 10, 20]
        b = [5, 5, 5, 5]
        assert crossover_point(xs, a, b) == 3
        assert crossover_point(xs, [1, 1, 1, 1], b) is None
        with pytest.raises(ValueError):
            crossover_point([1], [1, 2], [1, 2])


class TestReporting:
    def test_table_render_contains_rows_and_notes(self):
        table = ExperimentTable(title="Table 1", columns=["rounds", "model"])
        table.add_row("this work", rounds=1234, model="pure")
        table.add_row("randomized", rounds=567.8, model="randomization")
        table.add_note("measured on the simulator")
        text = table.render()
        assert "Table 1" in text
        assert "this work" in text
        assert "1,234" in text
        assert "note: measured" in text

    def test_table_as_dicts(self):
        table = ExperimentTable(title="T", columns=["rounds"])
        table.add_row("a", rounds=1)
        assert table.as_dicts() == [{"algorithm": "a", "rounds": 1}]

    def test_comparison_summary_orders_by_rounds(self):
        lines = comparison_summary({"slow": 100.0, "fast": 10.0})
        assert lines[0].startswith("fastest: fast")
        assert "10.0x" in lines[1]

    def test_render_report_joins_tables(self):
        table_a = ExperimentTable(title="A", columns=["x"])
        table_b = ExperimentTable(title="B", columns=["x"])
        report = render_report([table_a, table_b])
        assert "A" in report and "B" in report
