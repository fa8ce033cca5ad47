"""Undirected-graph substrate on Spark DataFrames.

The paper operates on binary graphs (undirected, unweighted, no self-loops,
no multi-edges). The one stored form of a graph is the **adjacency table**:
one row per degree >= 1 vertex with its sorted neighbor array (``id``,
``nbrs``); ``edge_list`` derives the canonical edges (``src < dst``) from it
lazily. An edit batch changes it in two steps: ``edit_diff`` looks each
batch edge up in the adjacency row of its ``src``, and ``apply_edits`` swaps
in the new rows of the batch's endpoints.

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


def adjacency(edges: DataFrame) -> DataFrame:
    """Per-vertex sorted neighbor array of canonical ``edges``: columns
    ``id``, ``nbrs``."""
    return (
        symmetrize(edges)
        .groupBy("id")
        .agg(F.array_sort(F.collect_list("nbr")).alias("nbrs"))
    )


def edge_list(adjacency: DataFrame) -> DataFrame:
    """The canonical edges (``src < dst``) of an adjacency table."""
    return adjacency.select(
        F.col("id").alias("src"), F.explode("nbrs").alias("dst")
    ).where(F.col("src") < F.col("dst"))


def _batch(
    adjacency: DataFrame, inserts: DataFrame | None, deletes: DataFrame | None
) -> DataFrame:
    """The distinct canonical edges one batch names, with ``present`` true iff
    the edge is inserted and not deleted (deletes apply after inserts)."""
    none = adjacency.select(
        F.col("id").alias("src"), F.col("id").alias("dst")
    ).where(F.lit(False))
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


def edit_diff(
    adjacency: DataFrame, inserts: DataFrame | None, deletes: DataFrame | None
) -> DataFrame:
    """The canonical edges a batch really adds (``added``) or removes (not
    ``added``): columns ``src``, ``dst``, ``added``. Edits that change
    nothing, such as inserting a present edge, do not appear.

    Deletes apply after inserts: an edge both inserted and deleted in one
    batch ends up absent."""
    batch = _batch(adjacency, inserts, deletes)
    rows = adjacency.join(
        F.broadcast(batch.select(F.col("src").alias("id"))), "id", "left_semi"
    ).withColumnRenamed("id", "src")
    old = F.coalesce(F.array_contains("nbrs", F.col("dst")), F.lit(False))
    return (
        batch.join(F.broadcast(rows), "src", "left")
        .where(F.col("present") != old)
        .select("src", "dst", F.col("present").alias("added"))
    )


def apply_edits(adjacency: DataFrame, changed: DataFrame) -> DataFrame:
    """The adjacency table with the rows of ``changed`` (columns ``id``,
    ``new_nbrs``, sorted) swapped in; a null ``new_nbrs`` drops the vertex."""
    return adjacency.join(
        F.broadcast(changed.select("id")), "id", "left_anti"
    ).unionByName(
        changed.where(F.col("new_nbrs").isNotNull()).select(
            "id", F.col("new_nbrs").alias("nbrs")
        )
    )
