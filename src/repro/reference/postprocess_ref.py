"""NumPy/pandas reference of the rSLPA post-processing (Section III-B).

Mirrors ``repro.core.postprocess`` decision-for-decision (integer weights,
shared ``candidate_taus``/``select_tau1``/``size_entropy`` helpers), so the
Spark and reference pipelines return identical thresholds and covers — the
equality is asserted in tests. The τ1 sweep exploits monotonicity: candidates
are processed in descending order so edges are only ever *added* to one
union-find instance, amortizing the whole entropy sweep to a single pass.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np
import pandas as pd

from repro.cc.reference import UnionFind
from repro.core.postprocess import candidate_taus, select_tau1
from repro.metrics.entropy import size_entropy
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


def _strong_cover(
    weights: pd.DataFrame, tau_int: int
) -> Dict[int, Set[int]]:
    """Components (≥2 vertices) of the τ-filtered graph, keyed by min id."""
    kept = weights[weights["w_int"] >= tau_int]
    uf = UnionFind()
    for u, v in zip(kept["src"].to_numpy(), kept["dst"].to_numpy()):
        uf.add(int(u))
        uf.add(int(v))
        uf.union(int(u), int(v))
    return {root: set(m) for root, m in uf.components().items() if len(m) >= 2}


def sweep_entropies(
    weights: pd.DataFrame, cands: List[int], n_vertices: int
) -> List[Tuple[int, float]]:
    """(τ, entropy) for each candidate, via one descending union-find sweep."""
    w = weights.sort_values("w_int", ascending=False)
    src = w["src"].to_numpy()
    dst = w["dst"].to_numpy()
    wv = w["w_int"].to_numpy()
    uf = UnionFind()
    out: List[Tuple[int, float]] = []
    i = 0
    for tau in sorted(cands, reverse=True):
        while i < len(wv) and wv[i] >= tau:
            uf.add(int(src[i]))
            uf.add(int(dst[i]))
            uf.union(int(src[i]), int(dst[i]))
            i += 1
        roots: Dict[int, int] = {}
        for v in uf.parent:
            r = uf.find(v)
            roots[r] = roots.get(r, 0) + 1
        sizes = [s for s in roots.values() if s >= 2]
        out.append((tau, size_entropy(sizes, n_vertices)))
    return sorted(out)  # ascending τ, matching the Spark engine's order


def extract_cover(
    weights: pd.DataFrame, tau1_int: int, tau2_int: int
) -> List[Set[int]]:
    """Strong components at τ1 plus weak τ2-attachments (may overlap)."""
    strong = _strong_cover(weights, tau1_int)
    members: Set[int] = set().union(*strong.values()) if strong else set()
    comp_of: Dict[int, int] = {
        v: root for root, s in strong.items() for v in s
    }
    cover = {root: set(s) for root, s in strong.items()}
    weak = weights[weights["w_int"] >= tau2_int]
    for u, v in zip(weak["src"].to_numpy(), weak["dst"].to_numpy()):
        u, v = int(u), int(v)
        for iso, anchor in ((u, v), (v, u)):
            if iso not in members and anchor in members:
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
    entropies = sweep_entropies(weights, cands, g.n)
    tau1 = select_tau1(entropies)
    return extract_cover(weights, tau1, tau2), tau1, tau2
