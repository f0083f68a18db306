"""DeliveryLedger: the one record and predicate of local broadcast completion.

The set-based oracles below copy the per-pair loops the ledger replaced
(``WirelessNetwork.served_fraction`` and ``local_broadcast_served``): a dict
of receiver sets, probed pair by pair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import DeliveryLedger
from repro.sinr import deployment


def oracle_served_fraction(network, delivered, senders=None) -> float:
    sender, receiver = np.concatenate([network.edges(), network.edges()[:, ::-1]]).T
    if senders is not None:
        keep = np.isin(sender, np.fromiter(senders, dtype=np.int64))
        sender, receiver = sender[keep], receiver[keep]
    served = sum(r in delivered.get(s, ()) for s, r in zip(sender.tolist(), receiver.tolist()))
    return served / len(sender) if len(sender) else 1.0


def oracle_missing(network, delivered):
    missing = []
    for uid in network.uids:
        receivers = delivered.get(uid, set())
        for neighbor in network.neighbors(uid):
            if neighbor not in receivers:
                missing.append((uid, neighbor))
    return missing


def as_sets(senders, receivers):
    delivered = {}
    for sender, receiver in zip(senders, receivers):
        delivered.setdefault(sender, set()).add(receiver)
    return delivered


@st.composite
def placements_and_pairs(draw):
    """A small placement and a pair list mixing edges, non-edges and duplicates."""
    n = draw(st.integers(min_value=1, max_value=14))
    network = deployment.uniform_random(
        n, area_side=draw(st.floats(min_value=0.5, max_value=3.0)), seed=draw(st.integers(0, 10**6))
    )
    uids = network.uids
    edges = np.concatenate([network.edges(), network.edges()[:, ::-1]]).tolist()
    pair = st.tuples(st.sampled_from(uids), st.sampled_from(uids))
    if edges:
        pair = st.one_of(pair, st.sampled_from(edges).map(tuple))
    pairs = draw(st.lists(pair, max_size=3 * len(edges) + 4))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    senders = draw(st.none() | st.sets(st.sampled_from(uids)))
    return network, pairs, senders


class TestAgainstSetOracle:
    @given(placements_and_pairs())
    @settings(max_examples=60, deadline=None)
    def test_served_fraction_and_missing_match_the_set_oracle(self, case):
        network, pairs, senders = case
        senders_arr = np.array([s for s, _ in pairs], dtype=np.int64)
        receivers_arr = np.array([r for _, r in pairs], dtype=np.int64)
        ledger = DeliveryLedger(senders_arr, receivers_arr)
        delivered = as_sets(senders_arr.tolist(), receivers_arr.tolist())

        assert ledger.served_fraction(network) == oracle_served_fraction(network, delivered)
        assert ledger.served_fraction(network, senders=senders) == oracle_served_fraction(
            network, delivered, senders=senders
        )
        missing = list(zip(*(side.tolist() for side in ledger.missing(network))))
        assert missing == sorted(oracle_missing(network, delivered))
        assert sorted(zip(*(side.tolist() for side in ledger.pairs()))) == sorted(set(pairs))
        for uid in network.uids:
            assert ledger.receivers_of(uid) == delivered.get(uid, set())

    @given(placements_and_pairs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_pairs_do_not_depend_on_how_they_were_added(self, case, parts):
        _, pairs, _ = case
        whole = DeliveryLedger(*(np.array(side, dtype=np.int64).reshape(-1) for side in zip(*pairs)))
        split = DeliveryLedger()
        for chunk in np.array_split(np.array(pairs, dtype=np.int64).reshape(-1, 2)[::-1], parts):
            split.add(chunk[:, 0], chunk[:, 1])
        assert split == whole
        assert len(whole) == len(set(pairs))


class TestCompletion:
    def test_complete_ledger_missing_one_pair_is_not_complete(self):
        network = deployment.uniform_random(20, area_side=1.5, seed=4)
        senders, receivers = DeliveryLedger.edges_of(network).pairs()
        assert DeliveryLedger(senders, receivers).served_fraction(network) == 1.0
        drop = len(senders) // 2
        keep = np.arange(len(senders)) != drop
        ledger = DeliveryLedger(senders[keep], receivers[keep])
        assert ledger.served_fraction(network) == (len(senders) - 1) / len(senders)
        missing_senders, missing_receivers = ledger.missing(network)
        assert missing_senders.tolist() == [senders[drop]]
        assert missing_receivers.tolist() == [receivers[drop]]

    def test_no_edges_is_complete(self):
        network = deployment.line(1)
        assert DeliveryLedger().served_fraction(network) == 1.0
        assert len(DeliveryLedger().missing(network)[0]) == 0

    def test_receivers_of_unknown_uid_is_empty(self):
        ledger = DeliveryLedger(np.array([3, 3]), np.array([5, 7]))
        assert ledger.receivers_of(3) == {5, 7}
        assert ledger.receivers_of(4) == set()
        assert ledger.receivers_of(10**12) == set()

    def test_locate_finds_recorded_pairs_only(self):
        ledger = DeliveryLedger(np.array([2, 1, 2]), np.array([9, 4, 1]))
        assert ledger.locate(np.array([1, 2, 2, 4]), np.array([4, 1, 9, 4])).tolist() == [0, 1, 2, -1]

    def test_uids_outside_the_key_range_are_rejected(self):
        with pytest.raises(ValueError, match="delivery uids"):
            DeliveryLedger(np.array([1]), np.array([-1]))
        with pytest.raises(ValueError, match="delivery uids"):
            DeliveryLedger(np.array([2**31]), np.array([1]))
