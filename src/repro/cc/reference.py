"""Union-find connected components — correctness oracle and sweep engine.

Three uses:

* oracle for the distributed CC of ``repro.cc.components`` (tests);
* the local contraction pass of that CC, over each partition's edges;
* the τ1 sweep of the reference rSLPA engine: candidates are processed in
  *descending* threshold order so edges are only ever added, and one
  union-find instance amortizes the whole sweep.
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

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

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
        uf.add(u)
        uf.add(v)
        uf.union(u, v)
    return uf.components()


def component_labels(
    edges: Sequence[Tuple[int, int]], vertices: Iterable[int]
) -> Dict[int, int]:
    """Per-vertex component label = min id of its component."""
    comps = components_of_edges(edges, vertices)
    return {v: root for root, members in comps.items() for v in members}
