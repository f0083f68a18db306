"""Property tests: the columnar schedule pipeline against independent
oracles.

Every layer of the columnar pipeline is pinned against a check that shares
none of its code:

* CSR schedules vs their frozenset views (membership, inverse index,
  restriction / repetition / concatenation algebra);
* the columnar runners vs plain set logic over the schedules' frozenset
  views for who transmits, and the brute-force Equation 1 oracle
  (:func:`repro.testing.oracle.oracle_events`) for who decodes whom --
  event tables, per-listener reception rows, transmitter tables, round and
  message counters, and wake state;
* the vectorized proximity-graph filtering vs Algorithm 1's candidates x
  rounds loop, kept here as a short test-side oracle over the exchange's
  reception events.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AlgorithmConfig
from repro.core.primitives import wcss_for, wss_for
from repro.core.proximity import build_proximity_graph
from repro.selectors.ssf import TransmissionSchedule, greedy_random_ssf, prime_residue_ssf
from repro.selectors.wcss import random_wcss
from repro.selectors.wss import random_wss
from repro.simulation.engine import SINRSimulator
from repro.simulation.schedule import run_cluster_schedule, run_round_robin, run_schedule
from repro.sinr import deployment
from repro.testing.oracle import oracle_events


def make_sim(n: int, seed: int) -> SINRSimulator:
    return SINRSimulator(deployment.uniform_random(n, area_side=2.5, seed=seed))


def expected_events(network, round_sets, listeners=None):
    """Oracle ``(round, sender uid, receiver uid)`` events of per-round uid sets."""
    indptr, members = [0], []
    for transmitters in round_sets:
        members.extend(network.index_of(uid) for uid in sorted(transmitters))
        indptr.append(len(members))
    pool = None if listeners is None else [network.index_of(uid) for uid in listeners]
    uids = network.uid_array
    return [
        (t, int(uids[sender]), int(uids[receiver]))
        for t, receiver, sender, _ in oracle_events(
            network.positions, indptr, members, network.params, pool
        )
    ]


def assert_run_matches_oracle(sim, result, round_sets, listeners=None, awake_before=None):
    """A runner's result and the simulator's state against the oracles.

    ``round_sets[t]`` is the transmitter set round ``t`` must have, built
    with set logic by the caller; ``sim`` ran nothing else.
    ``awake_before`` is who was awake before the run (default: everyone);
    afterwards exactly they and every receiver must be awake.
    """
    network = sim.network
    events = expected_events(network, round_sets, listeners)

    rounds, senders, receivers = result.event_table()
    assert list(zip(rounds.tolist(), senders.tolist(), receivers.tolist())) == events
    tx_rounds, tx_uids = result.transmitter_table()
    assert np.all(np.diff(tx_rounds) >= 0)
    assert sorted(zip(tx_rounds.tolist(), tx_uids.tolist())) == [
        (t, uid) for t, transmitters in enumerate(round_sets) for uid in sorted(transmitters)
    ]
    heard = {uid: [] for uid in network.uids}
    for t, sender, receiver in events:
        heard[receiver].append((t, sender))
    for uid in network.uids:
        mask = receivers == uid
        assert list(zip(rounds[mask].tolist(), senders[mask].tolist())) == heard[uid]

    assert result.length == len(round_sets)
    assert sim.current_round == len(round_sets)
    assert sim.messages_sent == sum(len(transmitters) for transmitters in round_sets)
    assert sim.messages_delivered == len(events)
    awake = set(network.uids) if awake_before is None else set(awake_before)
    assert set(sim.awake_nodes()) == awake | {receiver for _, _, receiver in events}


class TestScheduleAlgebraEquivalence:
    @given(
        id_space=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_inverse_index_matches_frozenset_scan(self, id_space, k, seed):
        schedule = greedy_random_ssf(id_space, k, seed=seed)
        for uid in range(1, id_space + 1):
            scan = [t for t, r in enumerate(schedule.rounds) if uid in r]
            assert schedule.rounds_of(uid) == scan
            for t in range(min(len(schedule), 10)):
                assert schedule.transmits_in(uid, t) == (uid in schedule.rounds[t])

    @given(
        id_space=st.integers(min_value=4, max_value=30),
        k=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_restriction_and_tiling_match_set_algebra(self, id_space, k):
        schedule = prime_residue_ssf(id_space, k)
        allowed = set(range(1, id_space + 1, 2))
        restricted = schedule.restricted_to(allowed)
        assert [r & allowed for r in schedule.rounds] == list(restricted.rounds)
        tiled = schedule.repeated(3)
        assert list(tiled.rounds) == list(schedule.rounds) * 3
        glued = schedule.concatenated(restricted)
        assert list(glued.rounds) == list(schedule.rounds) + list(restricted.rounds)

    @given(
        id_space=st.integers(min_value=4, max_value=24),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_wcss_rounds_of_matches_transmits_in_scan(self, id_space, seed):
        schedule = random_wcss(id_space, 2, 2, seed=seed, length=40)
        rng = np.random.default_rng(seed)
        for uid in rng.integers(1, id_space + 1, size=5):
            cluster = int(rng.integers(1, id_space + 1))
            scan = [
                t for t in range(len(schedule)) if schedule.transmits_in(int(uid), cluster, t)
            ]
            assert schedule.rounds_of(int(uid), cluster) == scan


class TestRunnerEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=300),
        n=st.integers(min_value=3, max_value=24),
        k=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_run_schedule_matches_reference(self, seed, n, k):
        sim = make_sim(n, seed)
        uids = sim.network.uids
        schedule = random_wss(sim.network.id_space, k, seed=seed, length=30)
        rng = np.random.default_rng(seed + 1)
        participants = [uid for uid in uids if rng.random() < 0.7] or uids[:1]
        result = run_schedule(sim, schedule, participants)
        round_sets = [set(participants) & allowed for allowed in schedule.rounds]
        assert_run_matches_oracle(sim, result, round_sets)

    @given(
        seed=st.integers(min_value=0, max_value=300),
        n=st.integers(min_value=3, max_value=20),
    )
    @settings(max_examples=20, deadline=None)
    def test_run_cluster_schedule_matches_reference(self, seed, n):
        sim = make_sim(n, seed)
        uids = sim.network.uids
        schedule = random_wcss(sim.network.id_space, 3, 2, seed=seed, length=30)
        rng = np.random.default_rng(seed + 2)
        cluster_of = {uid: int(rng.integers(1, 4)) for uid in uids}
        result = run_cluster_schedule(sim, schedule, uids, cluster_of=cluster_of)
        round_sets = [
            {uid for uid in set(uids) & nodes if cluster_of[uid] in clusters}
            for nodes, clusters in zip(schedule.node_rounds, schedule.cluster_rounds)
        ]
        assert_run_matches_oracle(sim, result, round_sets)

    @given(
        seed=st.integers(min_value=0, max_value=200),
        n=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=15, deadline=None)
    def test_run_round_robin_matches_reference(self, seed, n):
        sim = make_sim(n, seed)
        uids = sim.network.uids
        result = run_round_robin(sim, list(reversed(uids)))
        round_sets = [{uid} for uid in sorted(uids)]
        assert_run_matches_oracle(sim, result, round_sets)

    def test_wake_on_reception_matches_reference(self):
        sim = make_sim(8, 5)
        uids = sim.network.uids
        source = uids[0]
        sim.put_all_to_sleep(except_for=[source])
        schedule = random_wss(sim.network.id_space, 2, seed=1, length=10)
        result = run_schedule(sim, schedule, [source], listeners=uids, wake_on_reception=True)
        round_sets = [{source} & allowed for allowed in schedule.rounds]
        assert_run_matches_oracle(
            sim,
            result,
            round_sets,
            listeners=uids,
            awake_before={source},
        )
        assert len(sim.awake_nodes()) > 1, "vacuous: nobody was woken"


def algorithm1_reference(sim, participants, config, cluster_of=None):
    """Algorithm 1's filtering and confirmation as a candidates x rounds loop.

    Runs the exchange through the (oracle-checked) runners, then applies the
    paper's rule literally: ``v`` drops a heard candidate ``w`` if it heard
    another same-cluster node in a round in which ``w`` was scheduled, and
    drops all candidates past the cap; an edge needs both endpoints to keep
    each other.  Returns ``(heard, candidates, adjacency, rounds_used,
    schedule_length)``.
    """
    participants = set(participants)
    start = sim.current_round
    id_space = sim.network.id_space
    cluster = {uid: 1 if cluster_of is None else int(cluster_of[uid]) for uid in participants}
    if cluster_of is None:
        schedule = wss_for(id_space, config)
        exchange = run_schedule(sim, schedule, participants)
        scheduled = {uid: {t for t, r in enumerate(schedule.rounds) if uid in r} for uid in participants}
    else:
        schedule = wcss_for(id_space, config)
        exchange = run_cluster_schedule(sim, schedule, participants, cluster_of=cluster)
        scheduled = {
            uid: {
                t
                for t, (nodes, clusters) in enumerate(zip(schedule.node_rounds, schedule.cluster_rounds))
                if uid in nodes and cluster[uid] in clusters
            }
            for uid in participants
        }
    cap = config.effective_candidate_cap
    events = {v: [] for v in participants}
    for t, sender, receiver in zip(*(column.tolist() for column in exchange.event_table())):
        if receiver in events:
            events[receiver].append((t, sender))
    heard, candidates = {}, {}
    for v in participants:
        relevant = [(t, w) for t, w in events[v] if cluster[w] == cluster[v]]
        heard[v] = list(dict.fromkeys(w for _, w in relevant))
        sender_in_round = dict(relevant)
        kept = {
            w for w in heard[v] if all(sender_in_round.get(t, w) == w for t in scheduled[w])
        }
        candidates[v] = kept if len(kept) <= cap else set()
    adjacency = {v: {w for w in candidates[v] if v in candidates[w]} for v in participants}
    confirmations = min(max((len(c) for c in candidates.values()), default=0), cap)
    rounds_used = sim.current_round - start + confirmations * len(schedule)
    return heard, candidates, adjacency, rounds_used, len(schedule)


class TestProximityEquivalence:
    """``build_proximity_graph`` against :func:`algorithm1_reference`."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 91])
    def test_unclustered_graph_matches_reference(self, seed):
        config = AlgorithmConfig.fast()
        network_a = deployment.dense_ball(20, radius=0.45, seed=seed)
        network_b = deployment.dense_ball(20, radius=0.45, seed=seed)
        graph = build_proximity_graph(SINRSimulator(network_a), network_a.uids, config)
        heard, candidates, adjacency, rounds_used, length = algorithm1_reference(
            SINRSimulator(network_b), network_b.uids, config
        )
        assert any(adjacency.values()), "vacuous: the reference kept no edge"
        assert graph.adjacency == adjacency
        assert graph.heard == heard
        assert graph.candidates == candidates
        assert graph.rounds_used == rounds_used
        assert graph.schedule_length == length

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_clustered_graph_matches_reference(self, seed):
        config = AlgorithmConfig.fast()
        rng = np.random.default_rng(seed)
        network_a = deployment.dense_ball(16, radius=0.4, seed=seed)
        network_b = deployment.dense_ball(16, radius=0.4, seed=seed)
        cluster_of = {uid: int(rng.integers(1, 4)) for uid in network_a.uids}
        graph = build_proximity_graph(
            SINRSimulator(network_a), network_a.uids, config, cluster_of=cluster_of
        )
        heard, candidates, adjacency, rounds_used, length = algorithm1_reference(
            SINRSimulator(network_b), network_b.uids, config, cluster_of=cluster_of
        )
        assert any(adjacency.values()), "vacuous: the reference kept no edge"
        assert graph.adjacency == adjacency
        assert graph.heard == heard
        assert graph.candidates == candidates
        assert graph.rounds_used == rounds_used
        assert graph.schedule_length == length


class TestListenerPoolNormalization:
    """Permuted or duplicated listener pools must not change the physics."""

    @staticmethod
    def _run(listeners, seed=4):
        network = deployment.uniform_random(12, area_side=2.5, seed=seed)
        sim = SINRSimulator(network)
        rng = np.random.default_rng(1)
        rounds = [[u for u in network.uids if rng.random() < 0.4] for _ in range(10)]
        schedule = TransmissionSchedule(
            id_space=network.id_space, rounds=tuple(frozenset(r) for r in rounds)
        )
        result = run_schedule(sim, schedule, network.uids, listeners=listeners)
        per_round = [[] for _ in rounds]
        for t, sender, receiver in zip(*(column.tolist() for column in result.event_table())):
            per_round[t].append((receiver, sender))
        return rounds, [sorted(r) for r in per_round]

    def test_permuted_listener_pool_matches_natural_order(self):
        network = deployment.uniform_random(12, area_side=2.5, seed=4)
        _, natural = self._run(list(network.uids))
        _, reversed_pool = self._run(list(reversed(network.uids)))
        assert natural == reversed_pool

    def test_duplicate_listeners_are_dropped(self):
        network = deployment.uniform_random(12, area_side=2.5, seed=4)
        _, natural = self._run(list(network.uids))
        rounds, duplicated = self._run([network.uids[0]] * 2 + list(network.uids))
        assert natural == duplicated
        for tx, deliveries in zip(rounds, duplicated):
            for receiver, _ in deliveries:
                assert receiver not in tx  # half-duplex survives duplicates


class TestColumnarAccessors:
    def test_event_table_round_major_and_consistent_with_events(self):
        sim = make_sim(10, 2)
        uids = sim.network.uids
        schedule = random_wss(sim.network.id_space, 2, seed=3, length=20)
        result = run_schedule(sim, schedule, uids)
        rounds, senders, receivers = result.event_table()
        assert np.all(np.diff(rounds) >= 0)
        assert len(senders) == len(receivers) == len(rounds) == sim.messages_delivered
        # A listener decodes at most one message per round.
        for uid in uids:
            assert np.all(np.diff(rounds[receivers == uid]) > 0)

    def test_first_receptions_match_heard_by(self):
        sim = make_sim(12, 9)
        uids = sim.network.uids
        result = run_round_robin(sim, uids)
        receivers, senders, rounds = result.first_receptions()
        all_rounds, all_senders, all_receivers = result.event_table()
        assert receivers.tolist() == sorted(set(all_receivers.tolist()))
        for uid, sender, round_index in zip(
            receivers.tolist(), senders.tolist(), rounds.tolist()
        ):
            first = np.flatnonzero(all_receivers == uid)[0]
            assert all_senders[first] == sender
            assert all_rounds[first] == round_index
