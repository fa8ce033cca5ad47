"""NumPy/pandas reference of the rSLPA post-processing (Section III-B).

Mirrors ``repro.core.postprocess`` decision for decision, so both engines
return identical thresholds and covers (asserted in tests). It shares the
Spark engine's kernels: ``match_counts`` weighs each canonical edge, and
``thresholds`` finds τ2, |V|, the candidates, their entropies and τ1, here
over every edge instead of the partitions' forests.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np
import pandas as pd

from repro.core.postprocess import match_counts, thresholds
from repro.reference.rslpa_ref import RefGraph, canon_pdf

# Edges per kernel call, as in one Arrow batch of the Spark engine: the
# kernel holds a few (rows, 2(T+1)) arrays at once.
BATCH_ROWS = 10_000


def edge_weights_ref(
    edges: pd.DataFrame, g: RefGraph, labels: np.ndarray
) -> pd.DataFrame:
    """Integer match-count weights per canonical edge: (src, dst, w_int)."""
    out = canon_pdf(edges)
    src, dst = (g.index_of(out[c].to_numpy()) for c in ("src", "dst"))
    parts = np.array_split(np.arange(len(out)), len(out) // BATCH_ROWS + 1)
    w = [match_counts(labels[src[p]], labels[dst[p]]) for p in parts]
    return out.assign(w_int=np.concatenate(w))


def extract_cover(
    weights: pd.DataFrame, strong: Dict[int, List[int]], tau2_int: int
) -> List[Set[int]]:
    """The τ1 components ``strong`` (keyed by min id) plus weak
    τ2-attachments (may overlap)."""
    comp_of: Dict[int, int] = {
        v: root for root, s in strong.items() for v in s
    }
    cover = {root: set(s) for root, s in strong.items()}
    weak = weights[weights["w_int"] >= tau2_int]
    for u, v in zip(weak["src"].to_numpy(), weak["dst"].to_numpy()):
        u, v = int(u), int(v)
        for iso, anchor in ((u, v), (v, u)):
            if iso not in comp_of and anchor in comp_of:
                cover[comp_of[anchor]].add(iso)
    return [cover[k] for k in sorted(cover)]


def postprocess_ref(
    edges: pd.DataFrame,
    g: RefGraph,
    labels: np.ndarray,
    n_candidates: int = 8,
) -> Tuple[List[Set[int]], int, int]:
    """Full reference post-processing: returns (cover, τ1_int, τ2_int)."""
    weights = edge_weights_ref(edges, g, labels)
    th = thresholds(
        *(weights[c].to_numpy() for c in ("src", "dst", "w_int")),
        weights["w_int"].unique(),
        n_candidates,
    )
    return extract_cover(weights, th.strong, th.tau2_int), th.tau1_int, th.tau2_int
