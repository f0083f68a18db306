"""Cross-cutting property-based tests of the paper's invariants.

These tests tie the layers together: random geometry in, paper guarantees
out.  They complement the deterministic integration tests with
hypothesis-generated placements (kept small so the full suite stays fast).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import validate_clustering
from repro.core import AlgorithmConfig, build_clustering
from repro.core.local_broadcast import local_broadcast
from repro.selectors.ssf import round_robin_schedule
from repro.selectors.wss import witness_rounds
from repro.simulation import SINRSimulator
from repro.simulation.schedule import run_schedule
from repro.sinr import SINRParameters, WirelessNetwork
from repro.sinr.backends import DenseMatrixBackend
from repro.sinr.geometry import pairwise_distances

# A compact strategy for node placements: up to 14 nodes in a 2x2 box with a
# minimum pairwise separation enforced by rounding to a coarse grid (avoids
# pathological co-located points that only stress float handling).
placements = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=4,
    max_size=14,
    unique=True,
).map(lambda cells: np.array([[0.1 * x, 0.1 * y] for x, y in cells]))


class TestPhysicsAgainstBruteForce:
    @given(placements, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_vectorized_receptions_match_direct_sinr_evaluation(self, points, seed):
        params = SINRParameters.default()
        engine = DenseMatrixBackend(points, params)
        rng = np.random.default_rng(seed)
        n = len(points)
        transmitters = [i for i in range(n) if rng.random() < 0.4] or [0]
        receptions = engine.receptions(transmitters)
        distances = pairwise_distances(points)
        for listener in range(n):
            if listener in transmitters:
                assert listener not in receptions
                continue
            # Brute-force: evaluate Equation (1) for every transmitter.
            decodable = []
            for sender in transmitters:
                signal = params.power / distances[sender, listener] ** params.alpha
                interference = sum(
                    params.power / distances[other, listener] ** params.alpha
                    for other in transmitters
                    if other not in (sender, listener)
                )
                if signal / (params.noise + interference) >= params.beta - 1e-12:
                    decodable.append(sender)
            assert len(decodable) <= 1  # beta > 1
            if decodable:
                assert receptions[listener].sender == decodable[0]
            else:
                assert listener not in receptions


class TestScheduleExecutionProperties:
    @given(placements)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_round_robin_execution_serves_every_communication_edge(self, points):
        network = WirelessNetwork(points)
        sim = SINRSimulator(network)
        schedule = round_robin_schedule(network.id_space)
        result = run_schedule(sim, schedule, participants=network.uids)
        heard = set(zip(*(column.tolist() for column in result.delivery_pairs())))
        for uid in network.uids:
            for neighbor in network.neighbors(uid):
                assert (uid, neighbor) in heard

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_wss_witness_property_on_proximity_sized_sets(self, seed):
        from repro.selectors.wss import random_wss

        rng = np.random.default_rng(seed)
        id_space = 64
        schedule = random_wss(id_space, 4, seed=2018)
        ids = rng.choice(np.arange(1, id_space + 1), size=6, replace=False)
        blockers = set(int(v) for v in ids[:4])
        selected = int(ids[0])
        witness = int(ids[4])
        assert witness_rounds(schedule, selected, witness, blockers), (
            f"no witnessed selection round for x={selected}, y={witness}, X={blockers}"
        )


class TestClusteringPropertyBased:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_clustering_valid_on_random_uniform_deployments(self, seed):
        from repro.sinr import deployment

        network = deployment.uniform_random(16, area_side=2.0, seed=seed)
        sim = SINRSimulator(network)
        result = build_clustering(sim, config=AlgorithmConfig.fast())
        assert set(result.cluster_of) == set(network.uids)
        report = validate_clustering(network, result.cluster_of, max_radius=2.0)
        assert report.valid_radius
        assert report.valid_overlap

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_local_broadcast_serves_all_edges_on_random_deployments(self, seed):
        from repro.sinr import deployment

        network = deployment.uniform_random(12, area_side=1.8, seed=seed)
        sim = SINRSimulator(network)
        result = local_broadcast(sim, config=AlgorithmConfig.fast())
        for uid in network.uids:
            assert set(network.neighbors(uid)) <= result.delivered.receivers_of(uid)
