"""rSLPA post-processing (paper Section III-B) on Spark DataFrames.

Pipeline:

1. **Edge weights** — ``w_ij = P(l_i = l_j)``, the probability that uniform
   draws from ``L_i`` and ``L_j`` coincide. With label histograms ``f_i``,
   ``w_ij = Σ_l f_i(l)·f_j(l) / (T+1)^2``. We carry the *integer* match count
   ``w_int = Σ_l f_i(l)·f_j(l)`` everywhere (thresholds included) so the
   Spark and NumPy engines agree bit-for-bit — floats appear only in reports.
   Each vertex's histogram, a ``map<label, count>``, is joined onto both
   directions of every edge, which one ``explode`` of the adjacency table
   gives; one write keeps that ``(a, b, w_int)`` table.
2. **τ2 = min_i max_j w_ij** (Eq. 2, "no isolated vertex"), |V| and the
   distinct weights are observed on that write, at no Spark job of their own.
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
from pyspark.sql import DataFrame, Window
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


def edge_weights(adjacency: DataFrame, labels: DataFrame) -> DataFrame:
    """Both directions of every edge of ``adjacency`` with its integer weight
    ``w_int = Σ_l f_a(l)·f_b(l)``: rows ``(a, b, w_int)``."""
    hist = (
        labels.groupBy("id", "label")
        .count()
        .groupBy("id")
        .agg(F.map_from_entries(F.collect_list(F.struct("label", "count"))))
        .toDF("id", "h")
    )
    ha, hb = F.col("ha"), F.col("hb")
    w_int = F.aggregate(
        F.map_keys(ha),
        F.lit(0).cast("long"),
        lambda acc, k: acc + ha[k] * F.coalesce(hb[k], F.lit(0)),
    )
    return (
        adjacency.select("id", F.explode("nbrs").alias("nbr"))
        .join(hist.toDF("id", "ha"), "id")
        .join(hist.toDF("nbr", "hb"), "nbr")
        .select(F.col("id").alias("a"), F.col("nbr").alias("b"), w_int.alias("w_int"))
    )


def write_weights(weights: DataFrame) -> Tuple[DataFrame, int, int, List[int]]:
    """Checkpoint the ``(a, b, w_int)`` table; returns it with τ2 (Eq. 2: min
    over vertices of max incident ``w_int``), the number of vertices and the
    distinct weights (at most (T+1)^2 + 1), all observed on that write."""
    # The join on ``b`` already partitions the rows by ``b``: no shuffle.
    by_b = Window.partitionBy("b")
    first = F.col("a") == F.min("a").over(by_b)  # one row per vertex
    mx = F.max("w_int").over(by_b)
    table, seen = materialize(
        weights.select("*", mx.alias("mx"), first.alias("first")),
        N_STATE_PARTS,
        "a",
        "b",
        "w_int",
        tau2=F.coalesce(F.min("mx"), F.lit(0)),
        n_vertices=F.count_if("first"),
        distinct_w=F.collect_set("w_int"),
    )
    return table, seen["tau2"], seen["n_vertices"], seen["distinct_w"]


def layered_components(weights: DataFrame, taus: Sequence[int]) -> DataFrame:
    """Components of every ``w_int ≥ τ`` graph, ``τ`` in ``taus``, from one CC
    run over the ``a < b`` half of ``weights``: rows ``(tau, id, comp)``.
    Vertex keys are ``(tau, id)`` structs, so the layers share no vertex and
    stay separate."""
    layered = (
        weights.where(F.col("a") < F.col("b"))
        .select(F.explode(F.array(*[F.lit(t) for t in taus])).alias("tau"), "*")
        .where(F.col("w_int") >= F.col("tau"))
    )
    comps = connected_components(
        layered.select(
            F.struct("tau", F.col("a").alias("id")).alias("src"),
            F.struct("tau", F.col("b").alias("id")).alias("dst"),
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
    """Strong members ``(comp, id)`` plus their weak attachments at τ2 over
    the ``(a, b, w_int)`` table: rows (comp, id)."""
    weak = (
        weights.where(F.col("w_int") >= F.lit(tau2_int))
        .join(strong.select(F.col("id").alias("a")), "a", "left_anti")
        .join(strong.select(F.col("id").alias("b"), "comp"), "b")
        .select(F.col("a").alias("id"), "comp")
        .distinct()
    )
    return strong.select("comp", "id").unionByName(weak.select("comp", "id"))


def postprocess(
    adjacency: DataFrame,
    labels: DataFrame,
    n_iters: int,
    n_candidates: int = 8,
) -> PostprocessResult:
    """Full Section III-B pipeline over the graph's adjacency table; returns
    communities and thresholds."""
    weights, tau2, n_vertices, distinct_w = write_weights(
        edge_weights(adjacency, labels)
    )
    cands = candidate_taus(distinct_w, tau2, n_candidates)
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
