"""Tests for the reference incremental engine (repro.reference.incremental_ref).

Covers the paper's Section IV logic: category handling, the
incremental-equals-scratch invariant, Theorems 4/5 as empirical
distribution checks, vertex insertion/deletion reductions, and η accounting
against the Section IV-D model.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import complexity as cx
from repro.core.incremental import keep_rule
from repro.reference.incremental_ref import (
    apply_edits_pdf,
    ref_apply_batch,
    ref_run_static,
)
from repro.reference.rslpa_ref import (
    build_graph,
    canon_pdf,
    draw_choice_matrices,
    resolve_label_matrix,
)
from repro.webgraph.generator import edit_batch, web_graph


def _pdf(pairs):
    return pd.DataFrame(pairs, columns=["src", "dst"])


def _ring(n):
    return _pdf([(i, (i + 1) % n) for i in range(n)])


class TestEditHelpers:
    def test_canon(self):
        out = canon_pdf(_pdf([(2, 1), (1, 2), (3, 3), (4, 5)]))
        assert out.to_numpy().tolist() == [[1, 2], [4, 5]]

    def test_apply_edits(self):
        base = _pdf([(1, 2), (2, 3)])
        out = apply_edits_pdf(base, _pdf([(3, 4)]), _pdf([(2, 1)]))
        assert out.to_numpy().tolist() == [[2, 3], [3, 4]]

    def test_insert_then_delete_same_edge(self):
        base = _pdf([(1, 2)])
        out = apply_edits_pdf(base, _pdf([(5, 6)]), _pdf([(5, 6)]))
        assert out.to_numpy().tolist() == [[1, 2]]


class TestInvariant:
    """Incremental labels must equal from-scratch resolution of the updated
    choice table — the paper's central claim, made exact (DESIGN.md §2)."""

    def _check(self, edges, inserts, deletes, n_iters=12, seed=3):
        st = ref_run_static(edges, n_iters, seed)
        st2, stats = ref_apply_batch(st, inserts, deletes)
        expect = resolve_label_matrix(st2.g, st2.src, st2.pos)
        assert np.array_equal(st2.labels, expect)
        return st, st2, stats

    def test_delete_only(self):
        self._check(_ring(30), None, _pdf([(0, 1), (10, 11)]))

    def test_insert_only(self):
        self._check(_ring(30), _pdf([(0, 15), (5, 20)]), None)

    def test_mixed(self):
        self._check(_ring(30), _pdf([(0, 15)]), _pdf([(3, 4)]))

    def test_new_vertex(self):
        # Vertex 100 appears: "pretend it was an old vertex with all old
        # neighbors removed" — all its rows are re-picked from scratch.
        st, st2, _ = self._check(_ring(10), _pdf([(100, 0), (100, 5)]), None)
        assert 100 in st2.g.ids

    def test_vertex_removed(self):
        # Vertex 0 loses all edges -> drops out of the graph state.
        st, st2, _ = self._check(_ring(10), None, _pdf([(0, 1), (0, 9)]))
        assert 0 not in st2.g.ids

    def test_larger_random_batch(self):
        g = web_graph(n=500, avg_degree=8, seed=1)
        ins, dele = edit_batch(g, 60, seed=2)
        self._check(g, ins, dele, n_iters=20, seed=5)

    def test_sequential_batches(self):
        g = web_graph(n=300, avg_degree=8, seed=4)
        st = ref_run_static(g, 10, seed=6)
        for bseed in range(3):
            ins, dele = edit_batch(st.edges, 30, seed=bseed)
            st, _ = ref_apply_batch(st, ins, dele)
            expect = resolve_label_matrix(st.g, st.src, st.pos)
            assert np.array_equal(st.labels, expect)
        assert st.epoch == 3

    def test_empty_batch_noop(self):
        st = ref_run_static(_ring(20), 8, seed=1)
        st2, stats = ref_apply_batch(st, None, None)
        assert stats["eta"] == 0 and stats["n_repicked"] == 0
        assert np.array_equal(st.labels, st2.labels)
        assert st2.epoch == st.epoch


class TestCategories:
    def test_category1_untouched(self):
        """Vertices with no adjacent change keep src/pos bit-identical."""
        g = web_graph(n=200, avg_degree=6, seed=2)
        st = ref_run_static(g, 15, seed=3)
        ins, dele = edit_batch(g, 10, seed=4)
        st2, _ = ref_apply_batch(st, ins, dele)
        affected = {v for e in pd.concat([ins, dele]).to_numpy() for v in e}
        for row, vid in enumerate(st2.g.ids):
            if int(vid) in affected or int(vid) not in set(st.g.ids.tolist()):
                continue
            old_row = int(np.searchsorted(st.g.ids, vid))
            assert np.array_equal(st2.src[row], st.src[old_row])
            assert np.array_equal(st2.pos[row], st.pos[old_row])

    def test_category2_kept_src_still_neighbor(self):
        """After deletions, every recorded src is a current neighbor."""
        g = web_graph(n=200, avg_degree=6, seed=7)
        st = ref_run_static(g, 15, seed=8)
        _, dele = edit_batch(g, 40, seed=9)
        st2, _ = ref_apply_batch(st, None, dele)
        ns = st2.g.neighbor_sets()
        for row, vid in enumerate(st2.g.ids):
            assert set(st2.src[row].tolist()) <= ns[int(vid)]

    def test_category3_src_includes_new_neighbors(self):
        """Inserted edges must be reachable as sources (Theorem 5 switch)."""
        # Star center 0; add many new leaves; with T=40 draws some rows
        # should switch to the new neighbors.
        edges = _pdf([(0, i) for i in range(1, 6)])
        st = ref_run_static(edges, 40, seed=1)
        ins = _pdf([(0, i) for i in range(6, 11)])
        st2, _ = ref_apply_batch(st, ins, None)
        row0 = int(st2.g.index_of(np.array([0]))[0])
        assert set(st2.src[row0].tolist()) & set(range(6, 11))

    def test_rows_keep_old_pair_or_take_epoch_draw(self):
        """Each row of an affected vertex either keeps its old (src, pos),
        with src an old and a current neighbor, or takes Algorithm 1's draw
        on the new graph at the batch's epoch."""
        g = web_graph(n=300, avg_degree=8, seed=12)
        n_iters, seed = 15, 13
        st = ref_run_static(g, n_iters, seed)
        ins, dele = edit_batch(g, 40, seed=14)
        st2, _ = ref_apply_batch(st, ins, dele)
        cand_src, cand_pos = draw_choice_matrices(st2.g, n_iters, seed, st2.epoch)
        old_ns, new_ns = st.g.neighbor_sets(), st2.g.neighbor_sets()
        diff = {tuple(e) for e in st.edges.to_numpy()} ^ {
            tuple(e) for e in st2.edges.to_numpy()
        }
        affected = {int(v) for e in diff for v in e}
        kept = drawn = 0
        for row, vid in enumerate(st2.g.ids.tolist()):
            if vid not in affected:
                continue
            old_row = int(np.searchsorted(st.g.ids, vid))
            has_old = vid in old_ns
            for j in range(n_iters):
                pair = (st2.src[row, j], st2.pos[row, j])
                if (
                    has_old
                    and pair == (st.src[old_row, j], st.pos[old_row, j])
                    and pair[0] in old_ns[vid] & new_ns[vid]
                ):
                    kept += 1
                else:
                    assert pair == (cand_src[row, j], cand_pos[row, j])
                    drawn += 1
        assert kept > 0 and drawn > 0

    def test_theorem4_uniformity(self):
        """Kept+repicked src is uniform over remaining neighbors after a
        deletion (Category 2, Theorem 4) — empirical over many seeds."""
        edges = _pdf([(0, i) for i in range(1, 6)])  # star, deg(0)=5
        dele = _pdf([(0, 5)])
        counts = {}
        for seed in range(400):
            st = ref_run_static(edges, 3, seed=seed)
            st2, _ = ref_apply_batch(st, None, dele)
            row0 = int(st2.g.index_of(np.array([0]))[0])
            for s in st2.src[row0]:
                counts[int(s)] = counts.get(int(s), 0) + 1
        assert set(counts) == {1, 2, 3, 4}
        total = sum(counts.values())
        for v in counts.values():
            assert v / total == pytest.approx(0.25, abs=0.04)

    def test_theorem5_uniformity(self):
        """After insertions, src is uniform over old+new neighbors
        (Category 3, Theorem 5) — empirical over many seeds."""
        edges = _pdf([(0, 1), (0, 2)])
        ins = _pdf([(0, 3), (0, 4)])
        counts = {}
        for seed in range(600):
            st = ref_run_static(edges, 3, seed=seed)
            st2, _ = ref_apply_batch(st, ins, None)
            row0 = int(st2.g.index_of(np.array([0]))[0])
            for s in st2.src[row0]:
                counts[int(s)] = counts.get(int(s), 0) + 1
        total = sum(counts.values())
        assert set(counts) == {1, 2, 3, 4}
        for v in counts.values():
            assert v / total == pytest.approx(0.25, abs=0.04)


class TestEtaModel:
    def test_eta_within_paper_bounds(self):
        """Measured η vs the Section IV-D model on uniform random edits."""
        g = web_graph(n=1500, avg_degree=10, seed=0)
        n_iters = 30
        etas = []
        for seed in range(3):
            st = ref_run_static(g, n_iters, seed=seed)
            ins, dele = edit_batch(g, 100, seed=seed)
            _, stats = ref_apply_batch(st, ins, dele)
            etas.append(stats["eta"])
        pc = cx.p_c(50, 50, len(canon_pdf(g)))
        n_v = build_graph(g).n
        lo = cx.eta_lower(n_iters, n_v, pc)
        hi = cx.eta_upper(n_iters, n_v, pc)
        mean_eta = np.mean(etas)
        assert lo * 0.5 <= mean_eta <= hi * 1.5, (lo, mean_eta, hi)

    def test_eta_near_expectation(self):
        g = web_graph(n=1500, avg_degree=10, seed=0)
        n_iters = 30
        st = ref_run_static(g, n_iters, seed=11)
        ins, dele = edit_batch(g, 200, seed=11)
        _, stats = ref_apply_batch(st, ins, dele)
        pc = cx.p_c(100, 100, len(canon_pdf(g)))
        expect = cx.eta_expected(n_iters, st.g.n, pc)
        assert stats["eta"] == pytest.approx(expect, rel=0.5)

    def test_eta_sublinear_in_batch_size(self):
        """Fig. 9's key shape: doubling the batch less than doubles η/edit."""
        g = web_graph(n=1000, avg_degree=10, seed=3)
        n_iters = 30
        st = ref_run_static(g, n_iters, seed=1)
        per_edit = []
        for b in (100, 400, 1600):
            ins, dele = edit_batch(g, b, seed=5)
            _, stats = ref_apply_batch(st, ins, dele)
            per_edit.append(stats["eta"] / b)
        assert per_edit[0] > per_edit[1] > per_edit[2]


def _csr(sets):
    flat = [sorted(s) for s in sets]
    offsets = np.cumsum([0] + [len(f) for f in flat])
    return np.array(sum(flat, []), dtype=np.int64), offsets


@st.composite
def _keep_cases(draw):
    """Old and new neighbor sets (either may be empty) drawn from a small
    pool of int64 values, so that rows hit and miss, and flat rows that
    index them."""
    pool = draw(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6, unique=True)
    )
    sets = st.lists(st.frozensets(st.sampled_from(pool)), min_size=1, max_size=5)
    old, new = draw(sets), draw(sets)
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(new) - 1),
                st.integers(0, len(old) - 1),
                st.sampled_from(pool),
                st.sampled_from(pool),
            ),
            max_size=12,
        )
    )
    return old, new, rows


def _keep_by_sets(old, new, rows):
    return [s in new[rn] and c in old[ro] for rn, ro, s, c in rows]


class TestKeepRule:
    """``keep_rule``, the keep kernel both engines call, against per-row
    Python sets."""

    @settings(max_examples=200, deadline=None)
    @given(_keep_cases())
    def test_matches_sets(self, case):
        old, new, rows = case
        r_new, r_old, s_old, cand = (
            np.array([r[i] for r in rows], dtype=np.int64) for i in range(4)
        )
        got = keep_rule(s_old, cand, r_new, _csr(new), r_old, _csr(old))
        assert got.tolist() == _keep_by_sets(old, new, rows)

    def test_no_old_rows_and_all_old_neighbors_lost(self):
        # Vertex 0 is new (no old set, so no old rows: its placeholder
        # old_src 0 happens to be a new neighbor). Vertex 1 lost both old
        # neighbors and gained 9. Vertex 2 kept 3 and gained 4.
        old = [frozenset(), frozenset({2, 3}), frozenset({3})]
        new = [frozenset({0, 5}), frozenset({9}), frozenset({3, 4})]
        rows = [
            (0, 0, 0, 5),
            (1, 1, 2, 3),
            (1, 1, 3, 9),
            (2, 2, 3, 3),
            (2, 2, 3, 4),
            (2, 2, 5, 3),
        ]
        r_new, r_old, s_old, cand = (
            np.array([r[i] for r in rows], dtype=np.int64) for i in range(4)
        )
        got = keep_rule(s_old, cand, r_new, _csr(new), r_old, _csr(old))
        assert got.tolist() == _keep_by_sets(old, new, rows)
        assert got.tolist() == [False, False, False, True, False, False]
