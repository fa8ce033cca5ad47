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
   to ``n_candidates`` values. For every τ the components of the ``w ≥ τ``
   edges are those of the maximum spanning forest's ``w ≥ τ`` edges, so
   each partition of the table's ``a < b`` half keeps only its own forest
   (Kruskal; Lattanzi et al., SPAA 2011), one collect brings the at most
   P·(|V|−1) survivors to the driver, and the forest kernel of
   ``repro.cc.reference`` sweeps them there in descending weight. That is
   the step's only Spark job, whatever the number of candidates. Selection
   logic is shared with the reference engine via
   ``candidate_taus``/``candidate_entropies``/``select_tau1`` below.
4. **Extraction** — the τ1 components (only vertices with a surviving
   edge, so each has ≥ 2 vertices) are the strong communities; remaining
   ("isolated") vertices attach weakly to each neighboring community
   reachable over an edge with ``w ≥ τ2`` — multi-attachment is what makes
   communities overlap.

The weight-threshold filter (paper §V-B2) is applied by the driver's sweep,
so no filtered graph is materialized per candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.cc.reference import max_spanning_forest, sweep_components
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


def candidate_entropies(
    comps: Dict[int, Dict[int, List[int]]], n_vertices: int
) -> List[Tuple[int, float]]:
    """``(τ, entropy)`` in ascending τ from each candidate's components, as
    ``sweep_components`` returns them. Sorted sizes make the float sum
    independent of the order the union-find found the components in."""
    return [
        (tau, size_entropy(sorted(map(len, comps[tau].values())), n_vertices))
        for tau in sorted(comps)
    ]


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


def _columns(pdf: pd.DataFrame) -> List[np.ndarray]:
    return [pdf[c].to_numpy() for c in ("a", "b", "w_int")]


def _local_forest(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """The rows of the partition's maximum spanning forest."""
    pdfs = list(batches)
    if pdfs:  # an empty partition has no batch
        pdf = pd.concat(pdfs, ignore_index=True)
        yield pdf.iloc[max_spanning_forest(*_columns(pdf))]


def connected_components(
    weights: DataFrame, taus: Sequence[int]
) -> Dict[int, Dict[int, List[int]]]:
    """Components of every ``w_int ≥ τ`` graph, ``τ`` in ``taus``, over the
    ``a < b`` half of ``weights``: for each τ, the components with at least
    2 vertices, keyed by min id. Each partition's forest keeps every edge
    the global one needs, so one collect of those forests is the only
    Spark job."""
    half = weights.where(F.col("a") < F.col("b"))
    forests = half.mapInPandas(_local_forest, half.schema).toPandas()
    return sweep_components(*_columns(forests), taus)


@dataclass
class PostprocessResult:
    """Communities plus the thresholds that produced them."""

    communities: DataFrame  # (comp, id) — one row per membership
    tau1_int: int
    tau2_int: int
    n_iters: int
    entropies: List[Tuple[int, float]]  # (τ, entropy) per candidate, ascending

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
    comps = connected_components(weights, cands)
    entropies = candidate_entropies(comps, n_vertices)
    tau1 = select_tau1(entropies)
    # A pandas frame (Arrow) becomes a local relation that the JVM scans; a
    # list would become a Python RDD. One partition: ``createDataFrame``
    # would slice the rows into ``defaultParallelism`` tasks.
    strong = weights.sparkSession.createDataFrame(
        pd.DataFrame(
            [(comp, v) for comp, vs in comps[tau1].items() for v in vs],
            columns=["comp", "id"],
            dtype="int64",
        ),
        "comp long, id long",
    ).coalesce(1)
    communities, _ = materialize(
        extract_communities(weights, strong, tau2), N_STATE_PARTS
    )
    release(weights)
    return PostprocessResult(
        communities=communities,
        tau1_int=tau1,
        tau2_int=tau2,
        n_iters=n_iters,
        entropies=entropies,
    )
