"""Undirected-graph substrate on Spark DataFrames.

The paper operates on binary graphs (undirected, unweighted, no self-loops,
no multi-edges). The one stored form of a graph is the **adjacency table**:
one row per degree >= 1 vertex with its sorted neighbor array (``id``,
``nbrs``), built from raw edges by ``adjacency``. Every Spark path reads
it; one ``explode`` of ``nbrs`` gives both directions of every edge. An
edit batch changes it in two steps: ``edit`` turns the batch into the old
and new neighbor arrays of every vertex whose array it changes (one lookup
of the batch's endpoints in the adjacency), and ``apply_edits`` swaps those
new rows in.

The sorted neighbor array is load-bearing: Algorithm 1 picks
``src_i^t = nbrs_i[h mod deg_i]``, and sortedness makes the pick a pure
function of the edge *set* (partition- and order-independent), so the Spark
engine and the NumPy reference agree bit-for-bit.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import IntegralType


def check_ids(edges: DataFrame) -> None:
    """Raise ``TypeError`` unless ``edges`` has integer ``src`` and ``dst``
    columns; reads only the schema, so it runs no Spark job."""
    types = {f.name: f.dataType for f in edges.schema.fields}
    for name in ("src", "dst"):
        if not isinstance(types.get(name), IntegralType):
            got = types[name].simpleString() if name in types else "missing"
            raise TypeError(
                f"edge column {name!r} must hold integer vertex ids, got {got}"
            )


def _both_ways(edges: DataFrame) -> DataFrame:
    """Both directions of each edge, self-loops dropped: columns ``id``,
    ``nbr``. Duplicates stay; their consumers drop them as sets."""
    e = edges.where(F.col("src") != F.col("dst"))
    fwd = e.select(F.col("src").alias("id"), F.col("dst").alias("nbr"))
    rev = e.select(F.col("dst").alias("id"), F.col("src").alias("nbr"))
    return fwd.unionByName(rev)


def adjacency(edges: DataFrame) -> DataFrame:
    """Per-vertex sorted neighbor array of the undirected graph on ``edges``
    (self-loops and duplicates dropped, in either orientation): columns
    ``id``, ``nbrs``. One shuffle builds it."""
    return (
        _both_ways(edges)
        .groupBy("id")
        .agg(F.array_sort(F.collect_set("nbr")).alias("nbrs"))
    )


def edit(
    adjacency: DataFrame, inserts: DataFrame | None, deletes: DataFrame | None
) -> DataFrame:
    """The vertices whose neighbor array one batch changes: columns ``id``,
    ``old_nbrs``, ``new_nbrs`` (sorted). A null ``old_nbrs`` marks a new
    vertex, a null ``new_nbrs`` one that drops to degree 0. Edits that change
    nothing, such as inserting a present edge, leave no row.

    Deletes apply after inserts: an edge both inserted and deleted in one
    batch ends up absent."""
    none = adjacency.select(
        F.col("id").alias("src"), F.col("id").alias("dst")
    ).where(F.lit(False))
    ins, dele = (
        _both_ways(none if e is None else e).withColumn("ins", F.lit(i))
        for e, i in ((inserts, True), (deletes, False))
    )
    # A batch is small: one partition groups it without a shuffle.
    batch = (
        ins.unionByName(dele)
        .coalesce(1)
        .groupBy("id")
        .agg(
            F.collect_list(F.when(F.col("ins"), F.col("nbr"))).alias("ins"),
            F.collect_list(F.when(~F.col("ins"), F.col("nbr"))).alias("dels"),
        )
    )
    rows = adjacency.join(F.broadcast(batch.select("id")), "id", "left_semi")
    old = F.coalesce("nbrs", F.array().cast("array<long>"))
    new = F.array_sort(F.array_except(F.array_union(old, "ins"), "dels"))
    return (
        batch.join(F.broadcast(rows), "id", "left")
        .select(
            "id", F.col("nbrs").alias("old_nbrs"), old.alias("old"), new.alias("new")
        )
        .where(F.col("old") != F.col("new"))
        .select(
            "id",
            "old_nbrs",
            F.when(F.size("new") > 0, F.col("new")).alias("new_nbrs"),
        )
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
