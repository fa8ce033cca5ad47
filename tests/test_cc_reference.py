"""Tests for the union-find CC oracle and the forest kernel
(repro.cc.reference)."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.reference import (
    UnionFind,
    components_of_edges,
    max_spanning_forest,
    sweep_components,
)


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind([1, 2, 3])
        assert uf.find(1) != uf.find(2)

    def test_union_links(self):
        uf = UnionFind([1, 2, 3])
        uf.union(1, 2)
        assert uf.find(1) == uf.find(2)
        assert uf.find(3) != uf.find(1)

    def test_transitive(self):
        uf = UnionFind(range(5))
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) == uf.find(4)
        assert uf.find(0) != uf.find(3)

    def test_sizes(self):
        uf = UnionFind(range(4))
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.size[uf.find(0)] == 3

    def test_components_keyed_by_min(self):
        comps = components_of_edges([(5, 9), (9, 2), (7, 8)])
        assert set(comps.keys()) == {2, 7}
        assert comps[2] == [2, 5, 9]
        assert comps[7] == [7, 8]

    def test_isolated_vertices_are_singletons(self):
        comps = components_of_edges([(1, 2)], vertices=[1, 2, 3])
        assert comps[3] == [3]


def _naive_components(edges, vertices):
    """BFS reference for the reference (tiny graphs only)."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen, out = set(), []
    for v in sorted(adj):
        if v in seen:
            continue
        comp, stack = set(), [v]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        out.append(sorted(comp))
    return {c[0]: c for c in out}


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80
    ),
    seed=st.integers(0, 100),
)
@settings(max_examples=80, deadline=None)
def test_matches_bfs(edges, seed):
    edges = [(u, v) for u, v in edges if u != v]
    vertices = {v for e in edges for v in e} | {0}
    assert components_of_edges(edges, vertices) == _naive_components(
        edges, vertices
    )


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 4)),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_forest_keeps_every_threshold_component(edges):
    # Weights 0..4 tie often, so Kruskal's choice among equal edges varies;
    # the components at every threshold must not.
    edges = [(u, v, w) for u, v, w in edges if u != v]
    src, dst, w = (np.array([e[i] for e in edges], dtype=np.int64) for i in range(3))
    f = max_spanning_forest(src, dst, w)
    assert (np.diff(w[f]) <= 0).all()
    whole = components_of_edges([(u, v) for u, v, _ in edges])
    assert len(f) == sum(len(m) - 1 for m in whole.values())  # a spanning forest
    taus = sorted(set(w.tolist())) + [5]  # 5 is above every weight
    swept = sweep_components(src, dst, w, taus)
    for tau in taus:
        full = components_of_edges([(u, v) for u, v, x in edges if x >= tau])
        kept = components_of_edges(
            [(int(src[i]), int(dst[i])) for i in f if w[i] >= tau]
        )
        assert kept == full == swept[tau]
