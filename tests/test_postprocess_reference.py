"""Tests for the reference post-processing (repro.reference.postprocess_ref)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cc.reference import max_spanning_forest, sweep_components
from repro.core.postprocess import (
    candidate_taus,
    match_counts,
    select_tau1,
    thresholds,
)
from repro.reference.postprocess_ref import (
    edge_weights_ref,
    extract_cover,
    postprocess_ref,
)
from repro.reference.rslpa_ref import build_graph, label_counts, propagate


def _pdf(pairs):
    return pd.DataFrame(pairs, columns=["src", "dst"])


class TestCandidateTaus:
    def test_all_when_few(self):
        assert candidate_taus([5, 1, 3], 0, 8) == [1, 3, 5]

    def test_filters_below_tau2(self):
        assert candidate_taus([1, 3, 5, 7], 4, 8) == [5, 7]

    def test_thins_to_n(self):
        out = candidate_taus(list(range(100)), 0, 5)
        assert len(out) == 5 and out[0] == 0 and out[-1] == 99

    def test_empty_fallback(self):
        assert candidate_taus([], 7, 4) == [7]

    def test_ascending(self):
        out = candidate_taus([9, 2, 5, 2, 7], 0, 10)
        assert out == sorted(set(out))

    def test_rejects_no_candidates(self):
        with pytest.raises(ValueError, match="n_candidates"):
            candidate_taus([1, 2, 3], 0, 0)


class TestSelectTau1:
    def test_argmax(self):
        assert select_tau1([(1, 0.5), (2, 0.9), (3, 0.7)]) == 2

    def test_tie_prefers_smaller_tau(self):
        assert select_tau1([(1, 0.9), (2, 0.9)]) == 1

    def test_single(self):
        assert select_tau1([(4, 0.0)]) == 4


class TestWeights:
    def test_label_counts_sum(self):
        g, src, pos, labels = propagate(_pdf([(0, 1), (1, 2)]), 6, seed=1)
        counts = label_counts(g, labels)
        assert counts.groupby("id")["cnt"].sum().eq(7).all()

    def test_identical_sequences_max_weight(self):
        # Two vertices with identical label histograms: w_int = (T+1)^2.
        g = build_graph(_pdf([(0, 1)]))
        labels = np.array([[0, 0, 0], [0, 0, 0]])
        w = edge_weights_ref(_pdf([(0, 1)]), g, labels)
        assert int(w["w_int"][0]) == 9

    def test_disjoint_sequences_zero_weight(self):
        g = build_graph(_pdf([(0, 1)]))
        labels = np.array([[0, 0, 0], [1, 1, 1]])
        w = edge_weights_ref(_pdf([(0, 1)]), g, labels)
        assert int(w["w_int"][0]) == 0

    def test_match_probability_semantics(self):
        # L_0=(0,1), L_1=(1,1): P(match) = (1/2)*(0) + (1/2)*1 = ... via
        # counts: common label 1 with f0=1, f1=2 -> w_int = 2, /(T+1)^2 = 2/4.
        g = build_graph(_pdf([(0, 1)]))
        labels = np.array([[0, 1], [1, 1]])
        w = edge_weights_ref(_pdf([(0, 1)]), g, labels)
        assert int(w["w_int"][0]) == 2

    def test_tau2_min_max(self):
        w = pd.DataFrame(
            {"src": [0, 1, 2], "dst": [1, 2, 3], "w_int": [10, 5, 8]}
        )
        # max incident: v0=10, v1=10, v2=8, v3=8 -> min = 8.
        th = thresholds(w["src"], w["dst"], w["w_int"], [5, 8, 10], 8)
        assert (th.tau2_int, th.n_vertices) == (8, 4)


# Labels near ±2^62: a ``row·span + label`` key overflows int64 on them.
LABELS = st.sampled_from([-(2**62) - 1, -(2**62), 2**62 - 1, 2**62, 2**62 + 1])


@st.composite
def _label_matrices(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    return [draw(arrays(np.int64, shape, elements=LABELS)) for _ in range(2)]


@given(pair=_label_matrices(), seed=st.integers(0, 2**32 - 1))
@example(pair=[np.array([[2**62, -(2**62), 2**62]])] * 2, seed=0)  # one row
@example(pair=[np.array([[2**62], [1]]), np.array([[2**62], [2**62]])], seed=0)
@settings(max_examples=200, deadline=None)
def test_match_counts_brute_force(pair, seed):
    # The kernel equals the pair count Σ_s Σ_t [la[r,s] = lb[r,t]] for
    # every int64 label, whatever the order of the labels within each row;
    # the second example has width 1.
    la, lb = pair
    expected = [
        sum(x == y for x in ra for y in rb)
        for ra, rb in zip(la.tolist(), lb.tolist())
    ]
    assert match_counts(la, lb).tolist() == expected
    rng = np.random.default_rng(seed)
    assert match_counts(*(rng.permuted(m, axis=1) for m in pair)).tolist() == expected


@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 20),
            st.integers(0, 20),
            st.integers(0, 4),
            st.integers(0, 3),
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_forest_union_keeps_every_threshold(edges):
    # Tied weights 0..4 on (u, v, w, partition) edges: each partition keeps
    # its own maximum spanning forest, and the union of those forests gives
    # the brute-force τ2 (min over vertices of the max incident weight) and
    # |V|, and the same grid, sweep, entropies and τ1 as every edge.
    edges = [e for e in edges if e[0] != e[1]]
    assume(edges)
    src, dst, w, part = (np.array([e[i] for e in edges]) for i in range(4))
    heaviest = {}
    for u, v, x, _ in edges:
        for end in (u, v):
            heaviest[end] = max(heaviest.get(end, x), x)
    kept = np.concatenate(
        [
            np.flatnonzero(part == p)[
                max_spanning_forest(*(a[part == p] for a in (src, dst, w)))
            ]
            for p in range(4)
        ]
    )
    distinct = sorted(set(w.tolist()))
    th = thresholds(src[kept], dst[kept], w[kept], distinct, 3)
    assert (th.tau2_int, th.n_vertices) == (min(heaviest.values()), len(heaviest))
    assert th == thresholds(src, dst, w, distinct, 3)


class TestExtraction:
    def _cover(self, tau1_int, tau2_int):
        w = self._weights()
        strong = sweep_components(w["src"], w["dst"], w["w_int"], [tau1_int])
        return extract_cover(w, strong[tau1_int], tau2_int)

    def _weights(self):
        # Two strong pairs (0-1, 2-3) bridged weakly via vertex 4.
        return pd.DataFrame(
            {
                "src": [0, 2, 1, 3],
                "dst": [1, 3, 4, 4],
                "w_int": [10, 10, 4, 4],
            }
        )

    def test_strong_components(self):
        cover = self._cover(tau1_int=10, tau2_int=4)
        # 4 attaches weakly to both communities -> overlap.
        assert {0, 1, 4} in cover and {2, 3, 4} in cover

    def test_overlap_via_weak_vertex(self):
        cover = self._cover(tau1_int=10, tau2_int=4)
        membership = [c for c in cover if 4 in c]
        assert len(membership) == 2

    def test_high_tau2_blocks_weak(self):
        cover = self._cover(tau1_int=10, tau2_int=5)
        assert {0, 1} in cover and {2, 3} in cover
        assert not any(4 in c for c in cover)

    def test_entropy_sweep_matches_direct(self):
        w = self._weights()
        th = thresholds(w["src"], w["dst"], w["w_int"], [4, 10], 8)
        assert th.n_vertices == 5
        ents = th.entropies
        assert [t for t, _ in ents] == [4, 10]
        # At τ=4 everything is one component of 5; at τ=10 two pairs.
        e4 = -1.0 * np.log(1.0)  # 5/5 * log(5/5) = 0
        assert ents[0][1] == pytest.approx(0.0)
        e10 = -2 * (2 / 5) * np.log(2 / 5)
        assert ents[1][1] == pytest.approx(e10)


class TestEndToEnd:
    def test_two_cliques(self):
        cl1 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        cl2 = [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        edges = _pdf(cl1 + cl2 + [(5, 6)])
        g, src, pos, labels = propagate(edges, 80, seed=2)
        cover, t1, t2 = postprocess_ref(edges, g, labels, n_candidates=12)
        assert any(len(c & set(range(6))) >= 5 for c in cover)
        assert any(len(c & set(range(6, 12))) >= 5 for c in cover)
        assert t1 >= t2

    def test_every_vertex_covered_on_cliques(self):
        cl1 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        cl2 = [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        edges = _pdf(cl1 + cl2 + [(5, 6)])
        g, src, pos, labels = propagate(edges, 80, seed=2)
        cover, _, _ = postprocess_ref(edges, g, labels, n_candidates=12)
        covered = set().union(*cover) if cover else set()
        # τ2's "no isolated vertex" principle: all 12 vertices assigned.
        assert covered == set(range(12))
