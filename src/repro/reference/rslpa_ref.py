"""NumPy reference engine for rSLPA.

Same algorithm, same draws, different substrate: this engine consumes the
*identical* splitmix64 draws as the Spark engine (`repro.core.choices`
exposes the shared kernel), so its choice table and label table are
bit-for-bit equal to Spark's — tested in ``tests/test_spark_engines.py``.
It serves two roles:

1. measurement oracle for the Spark dataflow (exact-equality checks);
2. fast engine for the Table I quality sweeps (6 sweeps x 5 points x
   multiple runs at T=100..200 would not fit a single-machine Spark budget;
   DESIGN.md Section 4 documents this substitution).

The propagation recurrence is resolved sequentially in t — O(T·|V|) work —
whereas Spark resolves it by pointer doubling in O(log T) join rounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
import pandas as pd

from repro.core.choices import draw_choices_arrays


@dataclass
class RefGraph:
    """Compact CSR view of an undirected graph.

    ``ids`` are the (sorted) original vertex ids; CSR rows are in ``ids``
    order; ``nbrs_flat`` stores *original* ids, sorted within each row —
    matching ``repro.core.graph.adjacency`` exactly.
    """

    ids: np.ndarray  # sorted original vertex ids, shape (n,)
    offsets: np.ndarray  # CSR offsets, shape (n+1,)
    nbrs_flat: np.ndarray  # concatenated sorted neighbor ids

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def index_of(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Map original ids to CSR row indices."""
        return np.searchsorted(self.ids, vertex_ids)

    def neighbor_sets(self) -> Dict[int, Set[int]]:
        return {
            int(self.ids[i]): set(
                self.nbrs_flat[self.offsets[i] : self.offsets[i + 1]].tolist()
            )
            for i in range(self.n)
        }


def canon_pdf(edges: pd.DataFrame) -> pd.DataFrame:
    """Canonical (src < dst, deduped, no loops) pandas edge list, sorted."""
    src = edges["src"].to_numpy(dtype=np.int64)
    dst = edges["dst"].to_numpy(dtype=np.int64)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pd.DataFrame({"src": pairs[:, 0], "dst": pairs[:, 1]})


def build_graph(edges: pd.DataFrame) -> RefGraph:
    """CSR graph from an edge list (columns ``src``, ``dst``).

    Self-loops and duplicate (unordered) pairs are dropped (``canon_pdf``),
    so the graph equals ``repro.core.graph.adjacency`` of the same edges.
    Degree-0 vertices do not exist by construction (every id appears in
    some edge).
    """
    pairs = canon_pdf(edges).to_numpy()
    both = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    ids, counts = np.unique(both[:, 0], return_counts=True)
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return RefGraph(ids=ids, offsets=offsets, nbrs_flat=both[:, 1].copy())


def draw_choice_matrices(
    g: RefGraph, n_iters: int, seed: int, epoch: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """``(src, pos)`` matrices of shape ``(n, T)``; column j is iteration j+1.

    Row order follows ``g.ids``; values are original vertex ids / positions.
    Identical to the Spark choice table by construction (shared kernel).
    """
    _, _, src, pos = draw_choices_arrays(
        g.ids, g.nbrs_flat, g.offsets, n_iters, seed, epoch
    )
    return src.reshape(g.n, n_iters), pos.reshape(g.n, n_iters)


def resolve_label_matrix(
    g: RefGraph, src: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """Labels ``(n, T+1)`` from the recurrence l_i^t = l_{src_i^t}^{pos_i^t}."""
    n, n_iters = src.shape
    labels = np.empty((n, n_iters + 1), dtype=np.int64)
    labels[:, 0] = g.ids
    for t in range(1, n_iters + 1):
        src_rows = g.index_of(src[:, t - 1])
        labels[:, t] = labels[src_rows, pos[:, t - 1]]
    return labels


def labels_long(g: RefGraph, labels: np.ndarray) -> pd.DataFrame:
    """Long-form ``(id, t, label)`` frame for diffing against Spark."""
    n, w = labels.shape
    return pd.DataFrame(
        {
            "id": np.repeat(g.ids, w),
            "t": np.tile(np.arange(w, dtype=np.int32), n),
            "label": labels.ravel(),
        }
    )


def label_counts(g: RefGraph, labels: np.ndarray) -> pd.DataFrame:
    """Histogram of each vertex's label sequence, ``(id, label, cnt)``,
    sorted: the SLPA reference thresholds its memory with it."""
    return (
        labels_long(g, labels)
        .groupby(["id", "label"], as_index=False)
        .size()
        .rename(columns={"size": "cnt"})
    )


def propagate(
    edges: pd.DataFrame, n_iters: int, seed: int, epoch: int = 0
) -> Tuple[RefGraph, np.ndarray, np.ndarray, np.ndarray]:
    """End-to-end Algorithm 1: returns ``(graph, src, pos, labels)``."""
    g = build_graph(edges)
    src, pos = draw_choice_matrices(g, n_iters, seed, epoch)
    return g, src, pos, resolve_label_matrix(g, src, pos)
