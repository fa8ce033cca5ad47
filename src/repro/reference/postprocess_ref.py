"""NumPy/pandas reference of the rSLPA post-processing (Section III-B).

Mirrors ``repro.core.postprocess`` decision-for-decision (integer weights,
one row per canonical edge), so the Spark and reference pipelines return
identical thresholds and covers — the equality is asserted in tests. τ2,
|V|, the candidate grid, the τ1 sweep and the entropies come from the
``thresholds`` function that the Spark engine runs on its driver, here
over every edge instead of the partitions' forests.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np
import pandas as pd

from repro.core.postprocess import thresholds
from repro.reference.rslpa_ref import RefGraph, canon_pdf, label_counts


def edge_weights_ref(
    edges: pd.DataFrame, counts: pd.DataFrame
) -> pd.DataFrame:
    """Integer match-count weights per canonical edge: (src, dst, w_int)."""
    cs = counts.rename(columns={"id": "src", "cnt": "cnt_s"})
    cd = counts.rename(columns={"id": "dst", "cnt": "cnt_d"})
    m = edges.merge(cs, on="src").merge(cd, on=["dst", "label"])
    m["prod"] = m["cnt_s"] * m["cnt_d"]
    agg = m.groupby(["src", "dst"], as_index=False)["prod"].sum()
    out = edges.merge(
        agg.rename(columns={"prod": "w_int"}), on=["src", "dst"], how="left"
    )
    out["w_int"] = out["w_int"].fillna(0).astype(np.int64)
    return out


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
    weights = edge_weights_ref(canon_pdf(edges), label_counts(g, labels))
    th = thresholds(
        *(weights[c].to_numpy() for c in ("src", "dst", "w_int")),
        weights["w_int"].unique(),
        n_candidates,
    )
    return extract_cover(weights, th.strong, th.tau2_int), th.tau1_int, th.tau2_int
