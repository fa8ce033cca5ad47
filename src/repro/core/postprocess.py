"""rSLPA post-processing (paper Section III-B) on Spark DataFrames.

Pipeline:

1. **Edge weights** — ``w_ij = P(l_i = l_j)``, the probability that uniform
   draws from ``L_i`` and ``L_j`` coincide. With label histograms ``f_i``,
   ``w_ij = Σ_l f_i(l)·f_j(l) / (T+1)^2``. We carry the *integer* match count
   ``w_int = Σ_l f_i(l)·f_j(l)`` everywhere (thresholds included) so the
   Spark and NumPy engines agree bit-for-bit — floats appear only in reports.
2. **τ2 = min_i max_j w_ij** (Eq. 2, "no isolated vertex").
3. **τ1 = argmax of community-size entropy** (Eq. 1) over a candidate grid.
   The paper enumerates [τ2, max w] at step 0.001; here the grid is thinned
   to ``n_candidates`` values. Each edge gets one copy per candidate
   ``τ ≤ w_int``, keyed ``(tau, id)``, and one connected-components run over
   that disjoint union of the τ-filtered graphs gives every candidate's
   components, so a candidate costs edge copies, not a CC run. Selection
   logic is shared with the reference engine via
   ``candidate_taus``/``select_tau1`` below.
4. **Extraction** — the τ1 layer of those components are the strong
   communities (CC emits only vertices with a surviving edge, so each has
   ≥ 2 vertices); remaining ("isolated") vertices attach weakly to each
   neighboring community reachable over an edge with ``w ≥ τ2`` —
   multi-attachment is what makes communities overlap.

The weight-threshold filter (paper §V-B2) is applied while the layered edge
frame is built, so no filtered graph is materialized per candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.cc.components import connected_components
from repro.core.checkpoint import N_STATE_PARTS, materialize, release
from repro.metrics.entropy import size_entropy


def candidate_taus(
    distinct_w: Sequence[int], tau2_int: int, n_candidates: int
) -> List[int]:
    """Deterministic candidate grid: distinct integer weights in
    ``[τ2, max]``, evenly thinned to ``n_candidates`` values (ascending)."""
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    ws = np.unique(np.asarray(list(distinct_w), dtype=np.int64))
    ws = ws[ws >= tau2_int]
    if len(ws) == 0:
        return [int(tau2_int)]
    if len(ws) <= n_candidates:
        return [int(w) for w in ws]
    idx = np.unique(np.linspace(0, len(ws) - 1, n_candidates).round().astype(int))
    return [int(w) for w in ws[idx]]


def select_tau1(
    entropies: Sequence[Tuple[int, float]],
) -> int:
    """Argmax entropy over (τ, entropy) pairs; ascending τ, strict improvement
    wins, so ties resolve to the smallest τ — identical in both engines."""
    best_tau, best_e = None, -1.0
    for tau, e in entropies:
        if e > best_e + 1e-12:
            best_tau, best_e = tau, e
    assert best_tau is not None
    return int(best_tau)


def edge_weights(edges: DataFrame, labels: DataFrame, n_iters: int) -> DataFrame:
    """Per-edge similarity: ``(src, dst, w_int, w)`` with
    ``w = w_int/(T+1)^2``; edges with no common label get ``w_int = 0``."""
    counts = labels.groupBy("id", "label").agg(F.count("*").alias("cnt"))
    cs = counts.select(
        F.col("id").alias("src"), "label", F.col("cnt").alias("cnt_s")
    )
    cd = counts.select(
        F.col("id").alias("dst"), "label", F.col("cnt").alias("cnt_d")
    )
    matched = (
        edges.join(cs, "src")
        .join(cd, ["dst", "label"])
        .groupBy("src", "dst")
        .agg(F.sum(F.col("cnt_s") * F.col("cnt_d")).alias("w_int"))
    )
    denom = float((n_iters + 1) ** 2)
    return (
        edges.join(matched, ["src", "dst"], "left")
        .select(
            "src",
            "dst",
            F.coalesce("w_int", F.lit(0)).cast("long").alias("w_int"),
        )
        .withColumn("w", F.col("w_int") / F.lit(denom))
    )


def tau2_and_n_vertices(weights: DataFrame) -> Tuple[int, int]:
    """Eq. 2 on integer weights (min over vertices of max incident w_int)
    and the number of vertices, from one per-vertex aggregate."""
    sym = weights.select(F.col("src").alias("id"), "w_int").unionByName(
        weights.select(F.col("dst").alias("id"), "w_int")
    )
    row = (
        sym.groupBy("id")
        .agg(F.max("w_int").alias("mx"))
        .agg(F.min("mx").alias("t2"), F.count("*").alias("n"))
        .collect()[0]
    )
    t2 = int(row["t2"]) if row["t2"] is not None else 0
    return t2, int(row["n"])


def layered_components(weights: DataFrame, taus: Sequence[int]) -> DataFrame:
    """Components of every ``w_int ≥ τ`` graph, ``τ`` in ``taus``, from one CC
    run: rows ``(tau, id, comp)``. Vertex keys are ``(tau, id)`` structs, so
    the layers share no vertex and stay separate."""
    layered = weights.select(
        F.explode(F.array(*[F.lit(t) for t in taus])).alias("tau"),
        "src",
        "dst",
        "w_int",
    ).where(F.col("w_int") >= F.col("tau"))
    comps = connected_components(
        layered.select(
            F.struct("tau", F.col("src").alias("id")).alias("src"),
            F.struct("tau", F.col("dst").alias("id")).alias("dst"),
        )
    )
    return comps.select(
        F.col("id.tau").alias("tau"),
        F.col("id.id").alias("id"),
        F.col("comp.id").alias("comp"),
    )


@dataclass
class PostprocessResult:
    """Communities plus the thresholds that produced them."""

    communities: DataFrame  # (comp, id) — one row per membership
    tau1_int: int
    tau2_int: int
    n_iters: int

    @property
    def tau1(self) -> float:
        return self.tau1_int / float((self.n_iters + 1) ** 2)

    @property
    def tau2(self) -> float:
        return self.tau2_int / float((self.n_iters + 1) ** 2)

    def cover(self) -> List[set]:
        """Driver-side list-of-sets view (for NMI and tests)."""
        rows = self.communities.collect()
        by_comp: Dict[int, set] = {}
        for r in rows:
            by_comp.setdefault(int(r["comp"]), set()).add(int(r["id"]))
        return [by_comp[k] for k in sorted(by_comp)]


def extract_communities(
    weights: DataFrame, strong: DataFrame, tau2_int: int
) -> DataFrame:
    """Strong members ``(comp, id)`` plus their weak attachments at τ2:
    rows (comp, id)."""
    sym = weights.select(
        F.col("src").alias("a"), F.col("dst").alias("b"), "w_int"
    ).unionByName(
        weights.select(F.col("dst").alias("a"), F.col("src").alias("b"), "w_int")
    )
    member_ids = strong.select("id").distinct()
    weak = (
        sym.where(F.col("w_int") >= F.lit(tau2_int))
        .join(member_ids.withColumnRenamed("id", "a"), "a", "left_anti")
        .join(
            strong.select(F.col("id").alias("b"), "comp"),
            "b",
        )
        .select(F.col("a").alias("id"), "comp")
        .distinct()
    )
    return strong.select("comp", "id").unionByName(weak.select("comp", "id"))


def postprocess(
    edges: DataFrame,
    labels: DataFrame,
    n_iters: int,
    n_candidates: int = 8,
) -> PostprocessResult:
    """Full Section III-B pipeline; returns communities and thresholds."""
    # At most (T+1)^2 + 1 distinct integer weights, observed on the write.
    weights, seen = materialize(
        edge_weights(edges, labels, n_iters),
        N_STATE_PARTS,
        distinct_w=F.collect_set("w_int"),
    )
    tau2, n_vertices = tau2_and_n_vertices(weights)
    cands = candidate_taus(seen["distinct_w"], tau2, n_candidates)
    comps = layered_components(weights, cands)
    sizes: Dict[int, List[int]] = {tau: [] for tau in cands}
    for r in comps.groupBy("tau", "comp").count().collect():
        sizes[int(r["tau"])].append(int(r["count"]))
    tau1 = select_tau1(
        [(tau, size_entropy(s, n_vertices)) for tau, s in sizes.items()]
    )
    strong = comps.where(F.col("tau") == tau1).select("comp", "id")
    communities, _ = materialize(
        extract_communities(weights, strong, tau2), N_STATE_PARTS
    )
    release(weights)
    release(comps)  # the last connected-components round
    return PostprocessResult(
        communities=communities, tau1_int=tau1, tau2_int=tau2, n_iters=n_iters
    )
