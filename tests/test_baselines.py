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
        assert result.delivered.served_fraction(small_network) == 1.0
        assert result.rounds_used > 0

    def test_unknown_density_completes_on_small_network(self, small_network):
        sim = SINRSimulator(small_network)
        result = randomized_local_broadcast_unknown_density(sim, seed=1)
        assert result.delivered.served_fraction(small_network) == 1.0

    def test_completion_ratio_is_one_when_complete(self, small_network):
        sim = SINRSimulator(small_network)
        result = randomized_local_broadcast_known_density(sim, seed=2)
        assert result.delivered.served_fraction(small_network) == pytest.approx(1.0)

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
    senders, receivers = result.delivered.pairs()
    pairs = list(zip(senders.tolist(), receivers.tolist()))
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
        assert result.delivered.served_fraction(small_network) == 1.0
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


def _awakened_digest(result) -> str:
    # Order-sensitive: the flood's informed-set order fixes which coin each
    # node draws, so a reordering shows up here before it moves any count.
    return hashlib.sha256(repr(list(result.awakened_round.items())).encode()).hexdigest()


def _uniform_60():
    return deployment.uniform_random(60, area_side=4.0, seed=13)


class TestRandomizedGlobalGolden:
    """Pinned outcomes of the randomized global floods.

    Each round's coins go to the informed nodes in the informed set's
    iteration order, so the RNG stream, the newly informed nodes' insertion
    order and the reception path together fix ``rounds_used``,
    ``completed_round``, the simulator's counters and the order of
    ``awakened_round``.  The ``no-stop`` runs end at the round budget.
    """

    CASES = {
        "line": (lambda: deployment.line(8), dict(seed=7)),
        "uniform": (_uniform_60, dict(seed=2)),
        "no-stop": (_uniform_60, dict(seed=5, stop_when_complete=False, rounds_factor=0.05)),
    }
    EXPECTED = [
        (randomized_global_broadcast_decay, "line", 29, 29, 29, 37, 41,
         "8b33946a2ea6319f06a7f0be4216c93378f89155641232c5e446a3974399b692"),
        (randomized_global_broadcast_decay, "uniform", 68, 68, 68, 444, 830,
         "aae97f48238e50e3755f00279eb3496e342b3161016ab9833e026d1c810178f9"),
        (randomized_global_broadcast_decay, "no-stop", 18, None, 18, 32, 104,
         "1234c797130e140ff67c6bf191be7e74f175bd484ef5bdcaff924518020eb364"),
        (randomized_global_broadcast_uniform, "line", 24, 24, 24, 35, 29,
         "b0b1beb0c062995f6c2587cad5f759b2ea11ed6a228c0509c0898253c6eb805a"),
        (randomized_global_broadcast_uniform, "uniform", 87, 87, 87, 172, 1006,
         "a84eb27a9da30e7c09447285e81d188ff821ba4b6322386766eabd26865ce83a"),
        (randomized_global_broadcast_uniform, "no-stop", 222, None, 222, 692, 3433,
         "fd466347c2ed0851945f61de1986c88b85357af981e548b8cdc11bdb7bf9c3d0"),
    ]

    @pytest.mark.parametrize(
        "algorithm, case, rounds_used, completed_round, sim_rounds, sent, delivered, digest",
        EXPECTED,
        ids=[f"{e[0].__name__.rsplit('_', 1)[-1]}-{e[1]}" for e in EXPECTED],
    )
    def test_pinned_outcome(
        self, algorithm, case, rounds_used, completed_round, sim_rounds, sent, delivered, digest
    ):
        make_network, kwargs = self.CASES[case]
        network = make_network()
        sim = SINRSimulator(network)
        result = algorithm(sim, source=network.uids[0], **kwargs)
        assert result.rounds_used == rounds_used
        assert result.completed_round == completed_round
        assert sim.current_round == sim_rounds
        assert sim.messages_sent == sent
        assert sim.messages_delivered == delivered
        assert _awakened_digest(result) == digest


class TestRandomizedGlobalBackends:
    """The flood's outcome is a property of the placement, not the backend."""

    KWARGS = dict(seed=4, stop_when_complete=False, rounds_factor=0.05)

    @staticmethod
    def _network(backend):
        return deployment.uniform_random(200, area_side=8.0, seed=31, backend=backend)

    def _outcome(self, sim):
        source = sim.network.uids[0]
        result = randomized_global_broadcast_decay(sim, source=source, **self.KWARGS)
        counters = (sim.current_round, sim.messages_sent, sim.messages_delivered)
        return list(result.awakened_round.items()), result.rounds_used, counters

    def test_decay_identical_on_every_backend(self):
        dense, lazy, spatial = (
            self._outcome(SINRSimulator(self._network(backend)))
            for backend in ("dense", "lazy", "spatial")
        )
        ladder_network = self._network("spatial")
        ladder_network.physics._EXACT_FIRST_RATIO = 0  # force the certificate ladder
        ladder = self._outcome(SINRSimulator(ladder_network))
        assert ladder_network.physics.grid_info()["batches"] > 0
        assert len(dense[0]) > 1
        assert dense == lazy == spatial == ladder

    def test_sleeping_nodes_are_never_informed(self):
        network = self._network("dense")
        awake = network.uids[::2]
        sim = SINRSimulator(network)
        sim.put_all_to_sleep(except_for=awake)
        awakened, _, _ = self._outcome(sim)
        informed = {uid for uid, _ in awakened}
        assert len(informed) > 1
        assert informed <= set(awake)
        assert sim.sleeping_nodes() == network.uids[1::2]


class TestLocationAware:
    def test_grid_strategy_completes(self, small_network):
        sim = SINRSimulator(small_network)
        result = location_aware_local_broadcast(sim, sweeps=2)
        assert result.delivered.served_fraction(small_network) == 1.0
        assert result.colors_used >= 1

    def test_rounds_scale_with_colors(self, small_network):
        one = location_aware_local_broadcast(SINRSimulator(small_network), sweeps=1)
        two = location_aware_local_broadcast(
            SINRSimulator(deployment.uniform_random(24, area_side=2.2, seed=23)), sweeps=2
        )
        assert two.rounds_used > one.rounds_used
