"""Distributed connected components in DataFrames (log-round style).

The paper's post-processing finds connected components of the τ-filtered
similarity graph and cites the logarithmic-round MapReduce CC of Chitnis et
al. [18]. We implement the classic *min-label propagation with pointer
jumping*: every vertex holds a candidate component label (initially its own
id); each round takes the min over its neighborhood and then jumps the
pointer (``comp ← comp(comp)``), which yields the same O(log)-round behavior
on the graphs at hand while being straightforward to prove monotone and
convergent. The union-find oracle in ``repro.cc.reference`` checks it.

Vertex ids may be of any orderable type, structs included: the τ1 sweep of
``repro.core.postprocess`` keys each vertex by ``(tau, id)`` and so finds the
components of every candidate-filtered graph in one run. The edge-weight
filter (paper Section V-B2) lives in that layered edge frame, not here.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

MAX_ROUNDS = 64


def connected_components(edges: DataFrame) -> DataFrame:
    """Components of the undirected graph on ``edges`` (``src``, ``dst``).

    Returns ``(id, comp)`` for every vertex with an edge, where ``comp`` is
    the minimum vertex id of its component; ids may be of any orderable type.
    """
    e = edges.select("src", "dst")
    sym = e.unionByName(
        e.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )
    ids = sym.select(F.col("src").alias("id")).distinct()
    labels = ids.select("id", F.col("id").alias("comp")).localCheckpoint(
        eager=True
    )
    for _ in range(MAX_ROUNDS):
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
        jumped = (
            stepped.join(jump, stepped["comp"] == jump["jid"], "inner")
            .select("id", F.col("jcomp").alias("comp"), "old")
            .localCheckpoint(eager=True)
        )
        changed = jumped.where(F.col("comp") != F.col("old")).limit(1).count()
        labels.unpersist()  # superseded checkpoint
        labels = jumped
        if changed == 0:
            return labels.select("id", "comp")
    raise RuntimeError("connected components did not converge")
