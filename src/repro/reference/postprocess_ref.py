"""NumPy/pandas reference of the rSLPA post-processing (Section III-B).

Mirrors ``repro.core.postprocess`` decision-for-decision (integer weights,
shared ``candidate_taus``/``candidate_entropies``/``select_tau1`` helpers),
so the Spark and reference pipelines return identical thresholds and covers
— the equality is asserted in tests. The τ1 sweep is the forest kernel of
``repro.cc.reference`` that the Spark engine runs on its driver: Kruskal
over every edge, then one descending sweep over the forest.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np
import pandas as pd

from repro.cc.reference import sweep_components
from repro.core.postprocess import (
    candidate_entropies,
    candidate_taus,
    select_tau1,
)
from repro.reference.rslpa_ref import RefGraph, canon_pdf


def label_counts(g: RefGraph, labels: np.ndarray) -> pd.DataFrame:
    """Histogram of each vertex's label sequence: (id, label, cnt)."""
    n, w = labels.shape
    ids = np.repeat(g.ids, w)
    pairs = np.stack([ids, labels.ravel()], axis=1)
    uniq, cnt = np.unique(pairs, axis=0, return_counts=True)
    return pd.DataFrame(
        {"id": uniq[:, 0], "label": uniq[:, 1], "cnt": cnt.astype(np.int64)}
    )


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


def tau2_int_ref(weights: pd.DataFrame) -> int:
    """Eq. 2 on integer weights: min over vertices of max incident w_int."""
    sym = pd.concat(
        [
            weights[["src", "w_int"]].rename(columns={"src": "id"}),
            weights[["dst", "w_int"]].rename(columns={"dst": "id"}),
        ]
    )
    if sym.empty:
        return 0
    return int(sym.groupby("id")["w_int"].max().min())


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
    counts = label_counts(g, labels)
    weights = edge_weights_ref(canon_pdf(edges), counts)
    tau2 = tau2_int_ref(weights)
    cands = candidate_taus(weights["w_int"].unique(), tau2, n_candidates)
    comps = sweep_components(
        *(weights[c].to_numpy() for c in ("src", "dst", "w_int")), cands
    )
    tau1 = select_tau1(candidate_entropies(comps, g.n))
    return extract_cover(weights, comps[tau1], tau2), tau1, tau2
