"""Undirected-graph substrate on Spark DataFrames.

The paper operates on binary graphs (undirected, unweighted, no self-loops,
no multi-edges). The one stored form of a graph is the **adjacency table**:
one row per degree >= 1 vertex with its sorted neighbor array (``id``,
``nbrs``), built from raw edges by ``adjacency``. Every Spark path reads
it; one ``explode`` of ``nbrs`` gives both directions of every edge. An
edit batch changes it in three steps: ``collect_batch`` brings the batch to
the driver, ``edit`` turns it into the old and new neighbor arrays of every
vertex whose array it changes (one lookup of the batch's endpoints in the
adjacency), and ``apply_edits`` swaps those new rows in.

The sorted neighbor array is load-bearing: Algorithm 1 picks
``src_i^t = nbrs_i[h mod deg_i]``, and sortedness makes the pick a pure
function of the edge *set* (partition- and order-independent), so the Spark
engine and the NumPy reference agree bit-for-bit.
"""
from __future__ import annotations

from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import IntegralType

from repro.core.checkpoint import ID_SCHEMA, lookup


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


def collect_batch(inserts: DataFrame | None, deletes: DataFrame | None) -> pd.DataFrame:
    """One edit batch on the driver, collected by one action: columns
    ``src``, ``dst`` (int64) and ``ins`` (True for an insert), self-loops
    dropped."""
    parts = [
        e.select(
            F.col("src").cast("long"), F.col("dst").cast("long"), F.lit(i).alias("ins")
        )
        for e, i in ((inserts, True), (deletes, False))
        if e is not None
    ]
    batch = (
        reduce(DataFrame.unionByName, parts).toPandas()
        if parts
        else pd.DataFrame({"src": [], "dst": [], "ins": []})
    )
    batch = batch.astype({"src": np.int64, "dst": np.int64, "ins": bool})
    return batch[batch["src"] != batch["dst"]]


def edit(adjacency: DataFrame, batch: pd.DataFrame) -> pd.DataFrame:
    """The vertices whose neighbor array ``batch`` (from ``collect_batch``)
    changes, as a driver-side frame sorted by ``id``: columns ``id`` (int64),
    ``old_nbrs`` and ``new_nbrs`` (sorted int64 arrays). A None ``old_nbrs``
    marks a new vertex, a None ``new_nbrs`` one that drops to degree 0.
    Edits that change nothing, such as inserting a present edge, leave no
    row.

    Deletes apply after inserts: an edge both inserted and deleted in one
    batch ends up absent. One lookup of the batch's endpoint ids fetches
    their adjacency rows."""
    # Each edit at both of its endpoints, grouped by endpoint.
    ends = np.concatenate([batch["src"], batch["dst"]])
    order = np.argsort(ends, kind="stable")
    nbrs = np.concatenate([batch["dst"], batch["src"]])[order]
    ins = np.concatenate([batch["ins"], batch["ins"]])[order]
    ids, starts = np.unique(ends[order], return_index=True)
    changed = []
    if len(ids):
        rows = lookup(adjacency, {"id": ids}, ID_SCHEMA)
        old_of = dict(zip(rows["id"].tolist(), rows["nbrs"]))
        none = np.empty(0, dtype=np.int64)
        cut = starts[1:]
        for v, nb, add in zip(ids.tolist(), np.split(nbrs, cut), np.split(ins, cut)):
            old = old_of.get(v)
            base = none if old is None else old
            new = np.setdiff1d(np.union1d(base, nb[add]), nb[~add])
            if not np.array_equal(base, new):
                changed.append((v, old, new if len(new) else None))
    out = pd.DataFrame(changed, columns=["id", "old_nbrs", "new_nbrs"])
    return out.astype({"id": np.int64})


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
