"""NumPy reference engine for SLPA — bit-identical to ``repro.slpa.slpa``.

Consumes the same splitmix64 draws (speaker sampling keyed by
``(t, listener, speaker)``) and votes with the same ``plurality_winners``
kernel (tie-breaks keyed by ``(t, listener)``), so the memory matrix, read
in long form ``(id, t, label)``, equals the Spark engine's memory table
exactly. Used for the Table I quality sweeps, where T=100 over many
parameter points would not fit a Spark-local budget.
"""
from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np
import pandas as pd

from repro.core import rand
from repro.reference.rslpa_ref import RefGraph, build_graph
from repro.slpa.slpa import plurality_winners, threshold_communities


def run_slpa_ref(
    edges: pd.DataFrame, n_iters: int, seed: int
) -> Tuple[RefGraph, np.ndarray]:
    """T iterations of SLPA; returns ``(graph, memory matrix (n, T+1))``."""
    g = build_graph(edges)
    listeners_row = np.repeat(np.arange(g.n), g.degrees)
    listener_ids = g.ids[listeners_row]
    speaker_ids = g.nbrs_flat
    speaker_rows = g.index_of(speaker_ids)
    mem = np.empty((g.n, n_iters + 1), dtype=np.int64)
    mem[:, 0] = g.ids
    for t in range(1, n_iters + 1):
        idx = rand.hash_mod(seed, rand.SEND, t, t, listener_ids, speaker_ids)
        sent = mem[speaker_rows, idx]
        uniq_l, winners = plurality_winners(listener_ids, sent, seed, t)
        # Every vertex has degree >= 1 in a RefGraph, so uniq_l == g.ids.
        mem[g.index_of(uniq_l), t] = winners
    return g, mem


def memory_counts_ref(g: RefGraph, mem: np.ndarray) -> pd.DataFrame:
    """Per-vertex label histogram (id, label, cnt) from the memory matrix."""
    n, w = mem.shape
    ids = np.repeat(g.ids, w)
    pairs = np.stack([ids, mem.ravel()], axis=1)
    uniq, cnt = np.unique(pairs, axis=0, return_counts=True)
    return pd.DataFrame(
        {"id": uniq[:, 0], "label": uniq[:, 1], "cnt": cnt.astype(np.int64)}
    )


def slpa_communities_ref(
    edges: pd.DataFrame, n_iters: int, seed: int, tau: float
) -> List[Set[int]]:
    """End-to-end SLPA baseline on the reference engine."""
    g, mem = run_slpa_ref(edges, n_iters, seed)
    return threshold_communities(memory_counts_ref(g, mem), tau, n_iters)
