"""Tests for the baseline algorithms (repro.baselines)."""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import (
    location_aware_local_broadcast,
    randomized_global_broadcast_decay,
    randomized_global_broadcast_uniform,
    randomized_local_broadcast_known_density,
    randomized_local_broadcast_unknown_density,
    tdma_global_broadcast,
    tdma_local_broadcast,
)
from repro.simulation import SINRSimulator
from repro.sinr import deployment


@pytest.fixture(scope="module")
def small_network():
    return deployment.uniform_random(24, area_side=2.2, seed=23)


@pytest.fixture(scope="module")
def path_network():
    return deployment.line(8)


class TestRandomizedLocal:
    def test_known_density_completes_on_small_network(self, small_network):
        sim = SINRSimulator(small_network)
        result = randomized_local_broadcast_known_density(sim, seed=1)
        assert result.completed(small_network)
        assert result.rounds_used > 0

    def test_unknown_density_completes_on_small_network(self, small_network):
        sim = SINRSimulator(small_network)
        result = randomized_local_broadcast_unknown_density(sim, seed=1)
        assert result.completed(small_network)

    def test_completion_ratio_is_one_when_complete(self, small_network):
        sim = SINRSimulator(small_network)
        result = randomized_local_broadcast_known_density(sim, seed=2)
        assert result.completion_ratio(small_network) == pytest.approx(1.0)

    def test_deterministic_for_fixed_seed(self, path_network):
        a = randomized_local_broadcast_known_density(SINRSimulator(path_network), seed=5)
        b = randomized_local_broadcast_known_density(SINRSimulator(deployment.line(8)), seed=5)
        assert a.rounds_used == b.rounds_used

    def test_runs_are_bounded_without_early_stop(self, path_network):
        sim = SINRSimulator(path_network)
        result = randomized_local_broadcast_known_density(
            sim, seed=3, stop_when_complete=False, rounds_factor=1.0
        )
        assert result.completed_round is None
        assert result.rounds_used > 0


def _delivered_digest(result) -> str:
    pairs = sorted((s, r) for s, receivers in result.delivered.items() for r in receivers)
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


class TestRandomizedLocalGolden:
    """Pinned outcomes of the chunked randomized local broadcast.

    The coin flips, the 32-round chunks and the per-round completion check
    fix ``rounds_used``, ``completed_round``, the simulator's round counter
    (which runs to the end of the completing chunk) and every delivered
    pair.  The ``no-stop`` runs end on a partial chunk.  Any change to the
    RNG stream, the chunk boundaries or the reception path shows up here.
    """

    CASES = {
        "complete": (lambda: deployment.uniform_random(24, area_side=2.2, seed=23), dict(seed=1)),
        "no-stop": (
            lambda: deployment.uniform_random(40, area_side=3.0, seed=5),
            dict(seed=3, stop_when_complete=False, rounds_factor=1.0),
        ),
    }
    EXPECTED = [
        (randomized_local_broadcast_known_density, "complete", 174, 174, 192,
         "e2cb2db2027ced023486a619d8063b10297dbbef2e54bbad7a54042bfbac6001"),
        (randomized_local_broadcast_known_density, "no-stop", 80, None, 80,
         "42b6360f21a276e972efea86f69446370316c7e2870c038e1792f6e5e7fcb75b"),
        (randomized_local_broadcast_unknown_density, "complete", 423, 423, 448,
         "5ef7adce16d938994184c59895079b723ac7c34a90eb56af78bb97034ad3f7d1"),
        (randomized_local_broadcast_unknown_density, "no-stop", 576, None, 576,
         "6daaaf7c7f63ebc5b9280973e9864a94dce1714c311f8ede822c60f1a4ceb7a8"),
    ]

    @pytest.mark.parametrize(
        "algorithm, case, rounds_used, completed_round, sim_rounds, digest",
        EXPECTED,
        ids=[f"{e[0].__name__.rsplit('_', 2)[-2]}-{e[1]}" for e in EXPECTED],
    )
    def test_pinned_outcome(self, algorithm, case, rounds_used, completed_round, sim_rounds, digest):
        make_network, kwargs = self.CASES[case]
        sim = SINRSimulator(make_network())
        result = algorithm(sim, **kwargs)
        assert result.rounds_used == rounds_used
        assert result.completed_round == completed_round
        assert sim.current_round == sim_rounds
        assert _delivered_digest(result) == digest


class TestTDMA:
    def test_local_broadcast_always_completes(self, small_network):
        sim = SINRSimulator(small_network)
        result = tdma_local_broadcast(sim)
        assert result.completed(small_network)
        assert result.rounds_used == small_network.id_space

    def test_local_broadcast_without_full_charge(self, small_network):
        sim = SINRSimulator(small_network)
        result = tdma_local_broadcast(sim, charge_full_id_space=False)
        assert result.rounds_used == small_network.size

    def test_global_broadcast_reaches_all_in_diameter_sweeps(self, path_network):
        sim = SINRSimulator(path_network)
        result = tdma_global_broadcast(sim, source=path_network.uids[0], charge_full_id_space=False)
        assert result.reached_all(path_network)
        assert result.sweeps >= path_network.diameter_hops(path_network.uids[0])

    def test_global_broadcast_charges_id_space_per_sweep(self, path_network):
        sim = SINRSimulator(path_network)
        result = tdma_global_broadcast(sim, source=path_network.uids[0])
        assert result.rounds_used >= result.sweeps * path_network.id_space


class TestRandomizedGlobal:
    def test_decay_flood_reaches_all(self, path_network):
        sim = SINRSimulator(path_network)
        result = randomized_global_broadcast_decay(sim, source=path_network.uids[0], seed=7)
        assert result.reached_all(path_network)
        assert result.awakened_round[path_network.uids[0]] == 0

    def test_uniform_flood_reaches_all(self, path_network):
        sim = SINRSimulator(path_network)
        result = randomized_global_broadcast_uniform(sim, source=path_network.uids[0], seed=7)
        assert result.reached_all(path_network)

    def test_awakening_rounds_increase_with_distance(self, path_network):
        sim = SINRSimulator(path_network)
        result = randomized_global_broadcast_decay(sim, source=path_network.uids[0], seed=11)
        first = result.awakened_round[path_network.uids[1]]
        last = result.awakened_round[path_network.uids[-1]]
        assert last >= first

    def test_reached_count(self, path_network):
        sim = SINRSimulator(path_network)
        result = randomized_global_broadcast_decay(sim, source=path_network.uids[0], seed=3)
        assert result.reached_count() == path_network.size


class TestLocationAware:
    def test_grid_strategy_completes(self, small_network):
        sim = SINRSimulator(small_network)
        result = location_aware_local_broadcast(sim, sweeps=2)
        assert result.completed(small_network)
        assert result.colors_used >= 1

    def test_rounds_scale_with_colors(self, small_network):
        one = location_aware_local_broadcast(SINRSimulator(small_network), sweeps=1)
        two = location_aware_local_broadcast(
            SINRSimulator(deployment.uniform_random(24, area_side=2.2, seed=23)), sweeps=2
        )
        assert two.rounds_used > one.rounds_used
