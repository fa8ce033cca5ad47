"""rSLPA post-processing (paper Section III-B) on Spark DataFrames.

Pipeline:

1. **Edge weights** — ``w_ij = P(l_i = l_j)``, the probability that uniform
   draws from ``L_i`` and ``L_j`` coincide. With label histograms ``f_i``,
   ``w_ij = Σ_l f_i(l)·f_j(l) / (T+1)^2``. We carry the *integer* match count
   ``w_int = Σ_l f_i(l)·f_j(l)`` everywhere (thresholds included) so the
   Spark and NumPy engines agree bit-for-bit — floats appear only in reports.
   One ``explode`` of the adjacency table, kept where ``id < nbr``, gives
   every edge once; each end's ``collect_list`` of labels is joined on, and
   one ``mapInPandas`` counts their equal pairs with ``match_counts``, the
   kernel of both engines. One write keeps that ``(a, b, w_int)`` table,
   ``a < b``, and observes its distinct weights.
2. **Forest filter** — for every τ the components of the ``w ≥ τ`` edges
   are those of the maximum spanning forest's ``w ≥ τ`` edges, so each
   partition keeps only its own forest (Kruskal; Lattanzi et al., SPAA
   2011) and one collect brings the at most P·(|V|−1) survivors to the
   driver: the only Spark job of steps 2–3. Kruskal also keeps every
   vertex's heaviest edge, because the first edge it meets at a vertex
   always merges, so the forests give **τ2 = min_i max_j w_ij** (Eq. 2,
   "no isolated vertex") and |V| exactly.
3. **τ1 = argmax of community-size entropy** (Eq. 1) over a candidate grid.
   The paper enumerates [τ2, max w] at step 0.001; here the grid is thinned
   to ``n_candidates`` values, and the forest kernel of
   ``repro.cc.reference`` sweeps the forest edges once in descending
   weight. ``thresholds`` below does steps 2–3 on the driver; the reference
   engine calls it on all of its edges.
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
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
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


class Thresholds(NamedTuple):
    """Everything both engines decide from the weights alone."""

    tau2_int: int
    n_vertices: int
    candidates: List[int]  # ascending
    comps: Dict[int, Dict[int, List[int]]]  # per candidate, keyed by min id
    entropies: List[Tuple[int, float]]  # (τ, entropy) per candidate
    tau1_int: int

    @property
    def strong(self) -> Dict[int, List[int]]:
        """The τ1 components."""
        return self.comps[self.tau1_int]


def thresholds(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    distinct_w: Sequence[int],
    n_candidates: int,
) -> Thresholds:
    """τ2, |V|, the candidate grid over ``distinct_w``, its sweep, the
    entropies and τ1 from edges that hold every vertex's heaviest edge and
    every threshold graph's components: all edges, or a union of maximum
    spanning forests of any split of them. Sorted sizes make each entropy
    independent of the order the union-find found the components in."""
    heaviest = (
        pd.Series(np.concatenate([w, w]))
        .groupby(np.concatenate([src, dst]))
        .max()
    )
    tau2 = int(heaviest.min()) if len(heaviest) else 0
    cands = candidate_taus(distinct_w, tau2, n_candidates)
    comps = sweep_components(src, dst, w, cands)
    entropies = [
        (tau, size_entropy(sorted(map(len, comps[tau].values())), len(heaviest)))
        for tau in cands
    ]
    return Thresholds(
        tau2, len(heaviest), cands, comps, entropies, select_tau1(entropies)
    )


def match_counts(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Per row ``r``, the pairs with ``la[r, s] == lb[r, t]``: Σ_l f_a(l)·f_b(l).
    Sorting each row of ``[la | lb]`` keys any int64 label without overflow."""
    both = np.concatenate([la, lb], axis=1)
    order = np.argsort(both, axis=1)
    ranked = np.take_along_axis(both, order, axis=1)
    # A new key starts at every row and at every change of label in a row.
    fresh = np.ones(ranked.shape, dtype=bool)
    fresh[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    key = np.cumsum(fresh.ravel()) - 1
    from_a = (order < la.shape[1]).ravel()
    in_b = np.bincount(key[~from_a], minlength=key.size)
    return np.where(from_a, in_b[key], 0).reshape(both.shape).sum(axis=1)


def _weigh(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """``(a, b, w_int)`` rows of ``(nbr, id, la, lb)`` batches."""
    for pdf in batches:
        w = match_counts(*(np.stack(pdf[c].to_numpy()) for c in ("la", "lb")))
        yield pd.DataFrame({"a": pdf["id"], "b": pdf["nbr"], "w_int": w})


def edge_weights(adjacency: DataFrame, labels: DataFrame) -> DataFrame:
    """Rows ``(a, b, w_int)``: every edge once, ``a < b``, and its weight."""
    seqs = labels.groupBy("id").agg(F.collect_list("label"))
    return (
        adjacency.select("id", F.explode("nbrs").alias("nbr"))
        .where(F.col("id") < F.col("nbr"))
        .join(seqs.toDF("id", "la"), "id")
        .join(seqs.toDF("nbr", "lb"), "nbr")
        .mapInPandas(_weigh, "a long, b long, w_int long")
    )


def write_weights(weights: DataFrame) -> Tuple[DataFrame, List[int]]:
    """Checkpoint the ``(a, b, w_int)`` table; returns it with the distinct
    weights (at most (T+1)^2 + 1), observed on that write."""
    table, seen = materialize(
        weights, N_STATE_PARTS, distinct_w=F.collect_set("w_int")
    )
    return table, seen["distinct_w"]


def _local_forest(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """The rows of the partition's maximum spanning forest."""
    pdfs = list(batches)
    if pdfs:  # an empty partition has no batch
        pdf = pd.concat(pdfs, ignore_index=True)
        yield pdf.iloc[max_spanning_forest(pdf["a"], pdf["b"], pdf["w_int"])]


def connected_components(weights: DataFrame) -> List[np.ndarray]:
    """The ``a``, ``b`` and ``w_int`` columns of the union of the maximum
    spanning forests that the partitions of ``weights`` keep: every edge
    the components of any threshold graph, τ2 and |V| need, in one Spark
    job."""
    forests = weights.mapInPandas(_local_forest, weights.schema).toPandas()
    return [forests[c].to_numpy() for c in ("a", "b", "w_int")]


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
    the one-row-per-edge ``(a, b, w_int)`` table: rows (comp, id)."""
    heavy = weights.where(F.col("w_int") >= F.lit(tau2_int)).select("a", "b")
    # Either end may be the weak one. The broadcasts keep both joins above
    # the union; without them the anti-join is pushed into both branches.
    weak = (
        heavy.unionByName(heavy.select(F.col("b").alias("a"), F.col("a").alias("b")))
        .join(F.broadcast(strong.select(F.col("id").alias("a"))), "a", "left_anti")
        .join(F.broadcast(strong.select(F.col("id").alias("b"), "comp")), "b")
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
    weights, distinct_w = write_weights(edge_weights(adjacency, labels))
    th = thresholds(*connected_components(weights), distinct_w, n_candidates)
    # A pandas frame (Arrow) becomes a local relation that the JVM scans; a
    # list would become a Python RDD. One partition: ``createDataFrame``
    # would slice the rows into ``defaultParallelism`` tasks.
    strong = weights.sparkSession.createDataFrame(
        pd.DataFrame(
            [(comp, v) for comp, vs in th.strong.items() for v in vs],
            columns=["comp", "id"],
            dtype="int64",
        ),
        "comp long, id long",
    ).coalesce(1)
    communities, _ = materialize(
        extract_communities(weights, strong, th.tau2_int), N_STATE_PARTS
    )
    release(weights)
    return PostprocessResult(
        communities=communities,
        tau1_int=th.tau1_int,
        tau2_int=th.tau2_int,
        n_iters=n_iters,
        entropies=th.entropies,
    )
