"""Union-find connected components and the maximum-spanning-forest kernel.

Two uses:

* oracle for the components of every threshold graph (tests);
* the τ1 sweep of both rSLPA engines. For every τ, the components of the
  ``w ≥ τ`` edges equal those of the maximum spanning forest's ``w ≥ τ``
  edges (Kruskal / single linkage), so ``max_spanning_forest`` can drop
  every other edge first: the Spark engine runs it inside each partition
  (the filtering technique of Lattanzi, Moseley, Suri and Vassilvitskii,
  SPAA 2011), and ``sweep_components`` adds the forest edges in
  *descending* weight to one union-find, so one instance amortizes every
  candidate.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


class UnionFind:
    """Path-halving union-find over arbitrary hashable vertex ids."""

    def __init__(self, items: Iterable[int] = ()):  # noqa: D107
        self.parent: Dict[int, int] = {}
        self.size: Dict[int, int] = {}
        for v in items:
            self.add(v)

    def add(self, v: int) -> None:
        if v not in self.parent:
            self.parent[v] = v
            self.size[v] = 1

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``, adding either if new; True if
        they were apart."""
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def components(self) -> Dict[int, List[int]]:
        """Map from component root to sorted member list."""
        out: Dict[int, List[int]] = {}
        for v in self.parent:
            out.setdefault(self.find(v), []).append(v)
        return {min(m): sorted(m) for m in out.values()}


def components_of_edges(
    edges: Sequence[Tuple[int, int]], vertices: Iterable[int] = ()
) -> Dict[int, List[int]]:
    """Connected components keyed by their minimum vertex id."""
    uf = UnionFind(vertices)
    for u, v in edges:
        uf.union(u, v)
    return uf.components()


def max_spanning_forest(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Kruskal, heaviest edge first: the indices of the kept edges, in
    descending weight."""
    order = np.argsort(-np.asarray(w), kind="stable")
    uf = UnionFind()
    src, dst = (np.asarray(x)[order].tolist() for x in (src, dst))
    kept = [uf.union(a, b) for a, b in zip(src, dst)]
    return order[np.asarray(kept, dtype=bool)]


def sweep_components(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, taus: Iterable[int]
) -> Dict[int, Dict[int, List[int]]]:
    """For each τ in ``taus``, the components of the ``w ≥ τ`` edges with at
    least 2 vertices, keyed by min id: Kruskal, then one descending sweep
    over the forest."""
    f = max_spanning_forest(src, dst, w)
    fs, fd, fw = (np.asarray(x)[f].tolist() for x in (src, dst, w))
    uf = UnionFind()
    out: Dict[int, Dict[int, List[int]]] = {}
    i = 0
    for tau in sorted(set(taus), reverse=True):
        while i < len(fw) and fw[i] >= tau:
            uf.union(fs[i], fd[i])
            i += 1
        out[tau] = uf.components()  # every vertex has an edge: size >= 2
    return out
