"""Undirected-graph substrate on Spark DataFrames.

The paper operates on binary graphs (undirected, unweighted, no self-loops,
no multi-edges). Canonical representation here:

* ``edges``  — one row per undirected edge with ``src < dst``;
* ``adj``    — both directions, one row per (vertex, neighbor);
* ``adjacency`` — one row per vertex with its **sorted** neighbor array.

The sorted neighbor array is load-bearing: Algorithm 1 picks
``src_i^t = nbrs_i[h mod deg_i]``, and sortedness makes the pick a pure
function of the edge *set* (partition- and order-independent), so the Spark
engine and the NumPy reference agree bit-for-bit.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def canonical_edges(edges: DataFrame) -> DataFrame:
    """Drop self-loops and duplicates; orient every edge ``src < dst``."""
    return _oriented(edges).distinct()


def _oriented(edges: DataFrame) -> DataFrame:
    lo = F.least("src", "dst").alias("src")
    hi = F.greatest("src", "dst").alias("dst")
    return edges.select(lo, hi).where(F.col("src") != F.col("dst"))


def symmetrize(edges: DataFrame) -> DataFrame:
    """Both directions of each canonical edge: columns ``id``, ``nbr`` and
    any other columns of ``edges``."""
    rest = [c for c in edges.columns if c not in ("src", "dst")]
    fwd = edges.select(F.col("src").alias("id"), F.col("dst").alias("nbr"), *rest)
    rev = edges.select(F.col("dst").alias("id"), F.col("src").alias("nbr"), *rest)
    return fwd.unionByName(rev)


def degrees(edges: DataFrame) -> DataFrame:
    """Per-vertex degree: columns ``id``, ``degree`` (deg-0 vertices absent)."""
    return symmetrize(edges).groupBy("id").agg(F.count("*").alias("degree"))


def adjacency(edges: DataFrame) -> DataFrame:
    """Per-vertex sorted neighbor array: columns ``id``, ``nbrs``."""
    return (
        symmetrize(edges)
        .groupBy("id")
        .agg(F.array_sort(F.collect_list("nbr")).alias("nbrs"))
    )


def vertices(edges: DataFrame) -> DataFrame:
    """Distinct vertex ids appearing in the edge set: column ``id``."""
    return symmetrize(edges).select("id").distinct()


def _batch(
    edges: DataFrame, inserts: DataFrame | None, deletes: DataFrame | None
) -> DataFrame:
    """The distinct canonical edges one batch names, with ``present`` true iff
    the edge is inserted and not deleted (deletes apply after inserts)."""
    none = edges.where(F.lit(False))
    ins, dele = (
        _oriented(none if e is None else e).withColumn("present", F.lit(p))
        for e, p in ((inserts, True), (deletes, False))
    )
    # A batch is small: one partition groups it without a shuffle.
    return (
        ins.unionByName(dele)
        .coalesce(1)
        .groupBy("src", "dst")
        .agg(F.min("present").alias("present"))
    )


def apply_edits(
    edges: DataFrame, inserts: DataFrame | None, deletes: DataFrame | None
) -> DataFrame:
    """New canonical edge set after a batch of inserts and deletes.

    Deletes are applied after inserts (an edge both inserted and deleted in
    the same batch ends up absent, matching set semantics of one batch).
    """
    batch = _batch(edges, inserts, deletes)
    return edges.join(F.broadcast(batch), ["src", "dst"], "left_anti").unionByName(
        batch.where("present").select("src", "dst")
    )


def edit_diff(
    edges: DataFrame, inserts: DataFrame | None, deletes: DataFrame | None
) -> DataFrame:
    """The canonical edges a batch really adds (``added``) or removes (not
    ``added``): columns ``src``, ``dst``, ``added``. Edits that change
    nothing, such as inserting a present edge, do not appear."""
    batch = _batch(edges, inserts, deletes)
    old = edges.join(F.broadcast(batch), ["src", "dst"], "left_semi")
    return (
        batch.join(
            F.broadcast(old.withColumn("old", F.lit(True))), ["src", "dst"], "left"
        )
        .where(F.col("present") != F.coalesce("old", F.lit(False)))
        .select("src", "dst", F.col("present").alias("added"))
    )
