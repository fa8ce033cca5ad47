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
each partition (``chain_ends``, which the incremental overlay also runs) and
emits each vertex's anchor ``(j, 0) → (j, 0)`` where its one ``t = 1`` row
is, so exactly once under any partitioning. Its result is the up-front
checkpoint; its observed ``pending`` count (rows not yet at an anchor)
decides whether any global round runs: none does when no chain leaves its
partition.

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

from repro.core.checkpoint import N_STATE_PARTS, materialize, release

MAX_ROUNDS = 64  # far above log2 of any feasible T
POINTER_SCHEMA = "id long, t int, cid long, ct int"


def chain_ends(
    ids: np.ndarray, ts: np.ndarray, srcs: np.ndarray, poss: np.ndarray
) -> np.ndarray:
    """For each row, the index of the last row of its chain among these rows
    (distinct ``(id, t)``): a row links to the row whose ``(id, t)`` is its
    ``(src, pos)``. Numbered ids give one exact int64 key per row for any id;
    a hash index of the keys finds the links, and pointer doubling follows
    them all in O(log depth) passes."""
    n = len(ids)
    vertex, _ = pd.factorize(np.concatenate([ids, srcs]))
    width = int(max(ts.max(initial=0), poss.max(initial=0))) + 1
    key = vertex * width + np.concatenate([ts, poss])
    nxt = pd.Index(key[:n]).get_indexer(key[n:])
    nxt = np.where(nxt < 0, np.arange(n), nxt)
    while not np.array_equal(nxt[nxt], nxt):
        nxt = nxt[nxt]
    return nxt


def _local_doubling(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """Chase every pointer as far as the partition's own rows reach, and
    emit the anchor ``(j, 0, j, 0)`` of each ``t = 1`` row's vertex."""
    frames = [pdf for pdf in batches if len(pdf)]
    if not frames:
        return
    pdf = pd.concat(frames, ignore_index=True)
    end = chain_ends(*(pdf[c].to_numpy() for c in ("id", "t", "cid", "ct")))
    yield pdf.assign(cid=pdf["cid"].to_numpy()[end], ct=pdf["ct"].to_numpy()[end])
    first = pdf.loc[pdf["t"] == 1, "id"]
    yield pd.DataFrame({"id": first, "t": 0, "cid": first, "ct": 0})


def resolve_labels(choice_table: DataFrame) -> DataFrame:
    """The full label table ``(id, t, label)``, ``t ∈ [0..T]``, of the output
    of ``repro.core.choices.draw_choices`` (or its incremental successor)."""
    pending = F.count_if(F.col("ct") > 0)
    state, seen = materialize(
        choice_table.select(
            "id", "t", F.col("src").alias("cid"), F.col("pos").alias("ct")
        ).mapInPandas(_local_doubling, POINTER_SCHEMA),
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
