"""Distributed connected components in DataFrames (log-round style).

The paper's post-processing finds connected components of the τ-filtered
similarity graph and cites the logarithmic-round MapReduce CC of Chitnis et
al. [18]. We implement the classic *min-label propagation with pointer
jumping* after one **local contraction** pass (Łącki et al., 2018):

1. each partition of the edge frame runs the union-find of
   ``repro.cc.reference`` over its own edges and emits one row
   ``(v, local min)`` per vertex it saw. These star rows connect exactly
   what the partition's edges connect, so the star graph has the same
   components as the input. They are checkpointed once, grouped per vertex
   into its sorted star centers ``(id, comps)``;
2. if that write observes no vertex with two centers (always so when one
   partition holds all the edges), the stars are the components and no
   round runs. Otherwise every vertex starts from its smallest center, and
   each round takes the min over its star neighborhood and then jumps the
   pointer (``comp ← comp(comp)``), which is monotone and convergent and
   shows O(log)-round behavior on the graphs at hand.

The union-find oracle in ``repro.cc.reference`` checks the result.

Vertex ids may be of any orderable type, structs included: the τ1 sweep of
``repro.core.postprocess`` keys each vertex by ``(tau, id)`` and so finds the
components of every candidate-filtered graph in one run. ``mapInPandas``
hands structs over as dicts; their value tuples order like Spark's structs.
The edge-weight filter (paper Section V-B2) lives in that layered edge frame,
not here.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.cc.reference import UnionFind
from repro.core.checkpoint import N_STATE_PARTS, materialize, release

MAX_ROUNDS = 64


def _keys(col: pd.Series) -> list:
    """Hashable vertex keys; struct ids arrive as dicts."""
    return [tuple(v.values()) if isinstance(v, dict) else v for v in col]


def _local_stars(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """``(id, comp)`` rows: each vertex of the partition with the min id of
    its component in the partition's own edges."""
    uf = UnionFind()
    for pdf in batches:
        for u, v in zip(_keys(pdf["src"]), _keys(pdf["dst"])):
            uf.add(u)
            uf.add(v)
            uf.union(u, v)
    rows = [(v, root) for root, vs in uf.components().items() for v in vs]
    if rows:
        yield pd.DataFrame(rows, columns=["id", "comp"])


def connected_components(edges: DataFrame) -> DataFrame:
    """Components of the undirected graph on ``edges`` (``src``, ``dst``).

    Returns ``(id, comp)`` for every vertex with an edge, where ``comp`` is
    the minimum vertex id of its component; ids may be of any orderable type.
    """
    id_type = edges.schema["src"].dataType
    schema = T.StructType(
        [T.StructField("id", id_type), T.StructField("comp", id_type)]
    )
    stars, seen = materialize(
        edges.select("src", "dst")
        .mapInPandas(_local_stars, schema)
        .groupBy("id")
        .agg(F.array_sort(F.collect_set("comp")).alias("comps")),
        N_STATE_PARTS,
        split=F.count_if(F.size("comps") > 1),
    )
    labels = stars.select("id", F.col("comps")[0].alias("comp"))
    if seen["split"] == 0:
        return labels
    e = stars.select(F.col("id").alias("src"), F.explode("comps").alias("dst"))
    sym = e.unionByName(
        e.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )
    for i in range(MAX_ROUNDS):
        nbr_min = (
            sym.join(labels, sym["dst"] == labels["id"], "inner")
            .groupBy(sym["src"].alias("id"))
            .agg(F.min("comp").alias("nbr_comp"))
        )
        stepped = (
            labels.join(nbr_min, "id", "left")
            .select(
                "id",
                F.least(
                    "comp", F.coalesce("nbr_comp", F.col("comp"))
                ).alias("comp"),
                F.col("comp").alias("old"),
            )
        )
        # Pointer jump: comp <- comp(comp). Every comp value is a vertex id,
        # so the self-join is total.
        jump = stepped.select(
            F.col("id").alias("jid"), F.col("comp").alias("jcomp")
        )
        jumped, seen = materialize(
            stepped.join(jump, stepped["comp"] == jump["jid"], "inner").select(
                "id", F.col("jcomp").alias("comp"), "old"
            ),
            N_STATE_PARTS,
            changed=F.count_if(F.col("comp") != F.col("old")),
        )
        if i:
            release(labels)  # superseded; the first labels read ``stars``
        labels = jumped
        if seen["changed"] == 0:
            release(stars)
            return labels.select("id", "comp")
    raise RuntimeError("connected components did not converge")
