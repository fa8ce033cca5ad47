"""Label resolution: from the choice table to the label table.

Algorithm 1's recurrence is ``l_i^0 = i`` and
``l_i^t = l_{src_i^t}^{pos_i^t}`` with ``pos < t``: every ``(i, t)`` chases a
pointer chain that strictly decreases in ``t`` and ends at an anchor
``(j, 0)`` whose label is ``j``. The label of ``(i, t)`` is therefore the
*root vertex id* of its chain.

On Spark we resolve all ``(T+1)·|V|`` labels at once by **pointer doubling**:
the state frame maps each ``(id, t)`` to the chain node ``(cid, ct)`` it
currently points at; one self-join squares the pointer function, so chains of
depth ``d`` collapse in ``⌈log2 d⌉ ≤ ⌈log2 T⌉`` join rounds — the Spark-native
form of the paper's T-round message loop (expected chain depth is only
``O(log t)`` because ``pos`` is uniform, so the loop usually exits early).

Before those global rounds, one **local pass** does the same doubling inside
each partition of the choice table: every row looks up its ``(cid, ct)``
among the partition's rows once, and integer pointer doubling over those row
indices follows each chain until it leaves the partition or reaches an
anchor. Its result is the up-front checkpoint, and its observed ``pending``
count (rows not yet pointing at an anchor) decides whether any global round
runs at all: none does when each chain stays in one partition.

Every ``(cid, ct)`` key is guaranteed to exist as a state row: ``src`` is a
neighbor (degree ≥ 1, so it has rows for all t), ``pos < t ≤ T``, and anchors
``(j, 0) → (j, 0)`` are fixpoints. Hence the self-join is inner and lossless.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import choices as C
from repro.core.checkpoint import N_STATE_PARTS, materialize, release

MAX_ROUNDS = 64  # far above log2 of any feasible T
POINTER_SCHEMA = "id long, t int, cid long, ct int"


def _local_doubling(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """Chase every pointer of the partition as far as the partition's own
    rows reach: row ``i`` ends pointing where the last row of its chain
    inside the partition points."""
    frames = [pdf for pdf in batches if len(pdf)]
    if not frames:
        return
    pdf = pd.concat(frames, ignore_index=True)
    ids, vertices = pd.factorize(pdf["id"])
    width = int(pdf["t"].max()) + 1
    row_of = np.full(len(vertices) * width, -1, dtype=np.int64)
    row_of[ids * width + pdf["t"].to_numpy()] = np.arange(len(pdf))
    cids = vertices.get_indexer(pdf["cid"])
    ct = pdf["ct"].to_numpy()
    local = cids >= 0
    nxt = np.arange(len(pdf))
    nxt[local] = row_of[cids[local] * width + ct[local]]
    nxt[nxt < 0] = np.flatnonzero(nxt < 0)  # target outside the partition
    while True:  # pointer doubling over row indices
        jumped = nxt[nxt]
        if np.array_equal(jumped, nxt):
            break
        nxt = jumped
    yield pdf.assign(cid=pdf["cid"].to_numpy()[nxt], ct=ct[nxt])


def resolve_labels(adjacency: DataFrame, choice_table: DataFrame) -> DataFrame:
    """Resolve the full label table ``(id, t, label)`` for ``t ∈ [0..T]``.

    ``adjacency`` supplies the anchors (degree ≥ 1 vertices);
    ``choice_table`` is the output of ``repro.core.choices.draw_choices``
    (or its incrementally-maintained successor).
    """
    pointers = ("id", "t", F.col("src").alias("cid"), F.col("pos").alias("ct"))
    pending = F.count_if(F.col("ct") > 0)
    state, seen = materialize(
        choice_table.select(*pointers)
        .mapInPandas(_local_doubling, POINTER_SCHEMA)
        .unionByName(C.base_rows(adjacency).select(*pointers)),
        N_STATE_PARTS,
        pending=pending,
    )
    for _ in range(MAX_ROUNDS):
        if seen["pending"] == 0:
            break
        nxt = state.toDF("jid", "jt", "ncid", "nct")
        prev = state
        state, seen = materialize(
            state.join(
                nxt,
                (state["cid"] == nxt["jid"]) & (state["ct"] == nxt["jt"]),
                "inner",
            ).select(
                "id", "t", F.col("ncid").alias("cid"), F.col("nct").alias("ct")
            ),
            N_STATE_PARTS,
            pending=pending,
        )
        release(prev)
    else:  # pragma: no cover
        raise RuntimeError("pointer doubling did not converge")
    return state.select("id", "t", F.col("cid").alias("label"))
