"""Tests for the NumPy SLPA engine (repro.slpa.reference)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import rand
from repro.reference.rslpa_ref import label_counts
from repro.slpa.reference import run_slpa_ref, slpa_communities_ref
from repro.slpa.slpa import plurality_winners, threshold_communities


def _naive_winners(listeners, labels, seed, t):
    out = {}
    for l in np.unique(listeners):
        labs = np.sort(labels[listeners == l])
        uniq, cnt = np.unique(labs, return_counts=True)
        ties = uniq[cnt == cnt.max()]
        pick = int(rand.hash_mod(seed, rand.TIE, len(ties), t, int(l)))
        out[int(l)] = int(ties[pick])
    return out


class TestPluralityWinners:
    def test_single_listener_majority(self):
        l = np.array([7, 7, 7])
        lab = np.array([1, 1, 2])
        uniq, win = plurality_winners(l, lab, seed=0, t=1)
        assert uniq.tolist() == [7] and win.tolist() == [1]

    def test_tie_break_is_deterministic(self):
        l = np.array([7, 7])
        lab = np.array([1, 2])
        a = plurality_winners(l, lab, seed=0, t=1)[1][0]
        b = plurality_winners(l, lab, seed=0, t=1)[1][0]
        assert a == b and a in (1, 2)

    def test_tie_break_near_uniform(self):
        l = np.array([7, 7])
        lab = np.array([1, 2])
        picks = [
            int(plurality_winners(l, lab, seed=s, t=1)[1][0])
            for s in range(600)
        ]
        frac = np.mean(np.array(picks) == 1)
        assert 0.42 < frac < 0.58

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        listeners = rng.integers(0, 20, 300)
        labels = rng.integers(0, 6, 300)
        uniq, win = plurality_winners(listeners, labels, seed=seed, t=3)
        naive = _naive_winners(listeners, labels, seed=seed, t=3)
        assert {int(u): int(w) for u, w in zip(uniq, win)} == naive

    def test_multiple_listeners_order(self):
        l = np.array([3, 1, 2, 1, 3])
        lab = np.array([9, 5, 7, 5, 9])
        uniq, win = plurality_winners(l, lab, seed=0, t=1)
        assert uniq.tolist() == [1, 2, 3]
        assert win.tolist() == [5, 7, 9]


class TestRunSlpaRef:
    def test_memory_shape_and_init(self):
        edges = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
        g, mem = run_slpa_ref(edges, 10, seed=1)
        assert mem.shape == (4, 11)
        assert np.array_equal(mem[:, 0], g.ids)

    def test_labels_are_vertex_ids(self):
        edges = pd.DataFrame({"src": [0, 1, 2, 0], "dst": [1, 2, 3, 3]})
        g, mem = run_slpa_ref(edges, 15, seed=2)
        assert set(np.unique(mem).tolist()) <= set(g.ids.tolist())

    def test_deterministic(self):
        edges = pd.DataFrame({"src": [0, 1, 2, 0], "dst": [1, 2, 3, 3]})
        _, a = run_slpa_ref(edges, 10, seed=5)
        _, b = run_slpa_ref(edges, 10, seed=5)
        assert np.array_equal(a, b)

    def test_two_cliques_detected(self):
        cl1 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        cl2 = [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
        edges = pd.DataFrame(cl1 + cl2 + [(4, 5)], columns=["src", "dst"])
        comms = slpa_communities_ref(edges, 60, seed=3, tau=0.2)
        # Expect (roughly) the two cliques as communities.
        assert any(c >= {0, 1, 2, 3} for c in comms)
        assert any(c >= {6, 7, 8, 9} for c in comms)


class TestThresholding:
    def test_threshold_filters(self):
        counts = pd.DataFrame(
            {"id": [1, 1, 2, 3], "label": [9, 8, 9, 9], "cnt": [10, 1, 10, 10]}
        )
        comms = threshold_communities(counts, tau=0.5, n_iters=10)
        assert comms == [{1, 2, 3}]

    def test_duplicate_communities_merged(self):
        counts = pd.DataFrame(
            {"id": [1, 2, 1, 2], "label": [7, 7, 8, 8], "cnt": [5, 5, 5, 5]}
        )
        comms = threshold_communities(counts, tau=0.1, n_iters=10)
        assert comms == [{1, 2}]

    def test_singletons_dropped(self):
        counts = pd.DataFrame({"id": [1], "label": [7], "cnt": [11]})
        assert threshold_communities(counts, tau=0.1, n_iters=10) == []

    def test_memory_counts_sum(self):
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        g, mem = run_slpa_ref(edges, 8, seed=1)
        counts = label_counts(g, mem)
        assert counts.groupby("id")["cnt"].sum().eq(9).all()
