"""Incremental updating after an edge-edit batch (paper Section IV, Alg. 2).

Every per-batch frame is held on the driver, as pandas and NumPy arrays,
and is built from the batch itself, never by comparing the old and new big
tables: the **vertex frame** with the old and new neighbor arrays of the
affected vertices (those whose neighbor array the batch changes, from
``repro.core.graph.edit``), the **decisions** of their (vertex, iteration)
rows, and one **message wave** per correction round. Spark does only what
needs the big tables: the lookups of the rows these frames name (the
affected vertices' old choice rows, the re-picked rows' source labels, each
round's receivers) and the three writes of the new state, each a checkpoint
(``repro.core.checkpoint``): the adjacency and choice tables with the
affected vertices' rows swapped in, and the label table with every row's
latest message applied. So a state is plain checkpoints however many
batches it has seen. The batch's counts are read off the driver's frames;
``n_value_changed`` and η are observed on the label write.

Dataflow note: a per-batch frame reaches Spark as a one-partition local
frame (``checkpoint.local_frame``) that the lookup or write broadcasts
(``F.broadcast``), and each lookup's result is collected. Both are
O(affected rows + messages), which is the DataFrame equivalent of the
paper's point that Correction Propagation sends *small messages to
receivers* rather than reshuffling global state: a batch runs no shuffle,
where from-scratch resolution's pointer-doubling self-joins are inherently
big-big shuffles. The driver never holds a big table. The session-level
broadcast-join ban from ``repro.spark_session`` stays in force for
everything else.

Two phases, exactly as the paper structures them:

**1. Handling adjacent edge changes** (Section IV-A). The paper's device
is to "pretend we use the same series of random numbers to perform label
propagation on the new graph": every (vertex, iteration) row of an affected
vertex draws a candidate ``(src, pos)`` with Algorithm 1's own draw
(``repro.core.choices.draw_choices_arrays``, on the driver) on its new
neighbor array at the batch's epoch. A row keeps its old ``(src, pos)`` iff
the old ``src`` is still a neighbor and the candidate ``src`` is an old
neighbor; otherwise it takes the candidate (``keep_rule``, which the
reference engine also calls). This realizes the paper's three categories:

* Category 1 (no neighbor change) — row untouched (vertex not in the
  affected set at all).
* Category 2 (only lost neighbors) — every candidate is an old neighbor, so
  a row is re-picked iff its ``src`` was removed; Theorem 4 guarantees a
  kept ``src`` is still uniform over the remaining neighbors.
* Category 3 (gained neighbors, possibly also lost some) — if ``src`` was
  removed, the candidate is uniform over all current neighbors; otherwise
  the row stays with probability ``n_u/(n_u+n_a)`` (the candidate is one of
  the ``n_u`` kept neighbors) and else takes a candidate uniform over the
  ``n_a`` *added* neighbors — Theorem 5's auxiliary process.

Vertex insertion/deletion follows the paper's reduction: a vertex whose rows
are missing (new, or previously degree-0) re-picks everything; a vertex that
drops to degree 0 loses its rows (its sequence reverts to ``(i)``).

**2. Correction Propagation** (Section IV-B/C, Algorithm 2). Re-picked rows
form the round-0 wave, each carrying ``l_src^pos`` from the pre-update
labels; every later wave forwards the previous one's values to its
*receivers* — the rows whose ``(src, pos)`` equals a sender's ``(id, t)``.
The paper materializes receiver records ``R_i``; here the choice table
itself is the record and receivers are recovered by the reverse equi-join
on ``(src, pos)`` — the same information, maintained for free (DESIGN.md
Section 2). A receiver's iteration is strictly larger than its source's
position, so rows at ``t = T`` send nothing, and the loop terminates within
T rounds; in practice it runs for the depth of the perturbed propagation
trees, which is O(log T) in expectation.

The final label table provably equals a from-scratch resolution of the
updated choice table — the paper's "same communities as from scratch" claim,
asserted bit-for-bit in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import graph as G
from repro.core.checkpoint import N_STATE_PARTS, local_frame, materialize
from repro.core.choices import csr, draw_choices_arrays
from repro.core.rslpa import RslpaState

# (flat, offsets): row r is flat[offsets[r]:offsets[r+1]]
Csr = Tuple[np.ndarray, np.ndarray]


@dataclass
class UpdateStats:
    """Observability of one incremental batch (drives the Fig. 9 table)."""

    m_inserted: int
    m_deleted: int
    n_affected_vertices: int
    n_repicked: int  # rows re-picked in phase 1 (|F0|)
    n_value_changed: int  # rows whose final label differs from the old one
    eta: int  # |F0 ∪ value-changed| — the paper's η
    round_deltas: List[int] = field(default_factory=list)  # messages/round

    @property
    def rounds(self) -> int:
        """Correction-propagation message rounds until quiescence."""
        return len(self.round_deltas)


def in_rows(x: np.ndarray, rows: np.ndarray, sets: Csr) -> np.ndarray:
    """For each ``i``, whether ``x[i]`` is in row ``rows[i]`` of ``sets``.

    Values are ranked before they are keyed by row, so the test is exact for
    every int64 value and a key (row times the number of distinct values,
    plus the rank) cannot overflow at any size the driver holds."""
    flat, offsets = sets
    owner = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
    ranks, inv = np.unique(np.concatenate([flat, x]), return_inverse=True)
    k = len(ranks)
    in_set = owner * k + inv[: len(flat)]
    return np.isin(np.asarray(rows, dtype=np.int64) * k + inv[len(flat) :], in_set)


def keep_rule(
    old_src: np.ndarray,
    cand_src: np.ndarray,
    new_rows: np.ndarray,
    new_nbrs: Csr,
    old_rows: np.ndarray,
    old_nbrs: Csr,
) -> np.ndarray:
    """Phase 1's keep rule over flat (vertex, iteration) rows, the one kernel
    of both engines: row ``i`` keeps its old ``(src, pos)`` iff ``old_src[i]``
    is in its vertex's new neighbor set (row ``new_rows[i]`` of ``new_nbrs``)
    and ``cand_src[i]`` in its old one (row ``old_rows[i]`` of ``old_nbrs``).
    A vertex without old rows has an empty old set, so it keeps nothing
    whatever ``old_src`` holds."""
    return in_rows(old_src, new_rows, new_nbrs) & in_rows(cand_src, old_rows, old_nbrs)


def apply_batch(
    state: RslpaState, inserts: DataFrame | None, deletes: DataFrame | None
) -> tuple[RslpaState, UpdateStats]:
    """Evolve ``state`` under one batch of edge inserts/deletes.

    Every table of the new state is a checkpoint; ``state``'s own tables
    are read, never released.
    """
    for edits in (inserts, deletes):
        if edits is not None:
            G.check_ids(edits)
    n_iters, seed = state.n_iters, state.seed
    epoch = state.epoch + 1
    spark = state.adjacency.sparkSession

    # The affected vertices, sorted by id. Each added or removed edge
    # appears at both of its endpoints.
    vert = G.edit(state.adjacency, inserts, deletes)
    if vert.empty:
        return state, UpdateStats(0, 0, 0, 0, 0, 0)
    ids = vert["id"].to_numpy(dtype=np.int64)
    new_nbrs, old_nbrs = csr(vert["new_nbrs"]), csr(vert["old_nbrs"])
    new_deg, old_deg = np.diff(new_nbrs[1]), np.diff(old_nbrs[1])
    n_kept = in_rows(new_nbrs[0], np.repeat(np.arange(len(ids)), new_deg), old_nbrs)
    m_a, m_d = (int(len(n[0]) - n_kept.sum()) // 2 for n in (new_nbrs, old_nbrs))
    changed = local_frame(
        spark, vert[["id", "new_nbrs"]], "id long, new_nbrs array<long>"
    )
    new_adj, _ = materialize(G.apply_edits(state.adjacency, changed), N_STATE_PARTS)

    # --- Phase 1: re-pick affected rows -----------------------------------
    # The candidates are Algorithm 1's draw on the new graph at this epoch;
    # the keep rule is the module docstring's. A vertex without old rows
    # (new, or degree 0 before) has an empty old set, so it always takes
    # the candidate.
    live = np.flatnonzero(new_deg > 0)
    # Dropped vertices' rows are empty, so the live rows' starts and the
    # end of the flat array are the live vertices' own CSR offsets.
    live_offsets = np.append(new_nbrs[1][live], len(new_nbrs[0]))
    cid, ct, csrc, cpos = draw_choices_arrays(
        ids[live], new_nbrs[0], live_offsets, n_iters, seed, epoch
    )
    old_src, old_pos = np.zeros((2, len(cid)), dtype=np.int64)
    with_old = ids[(new_deg > 0) & (old_deg > 0)]
    if len(with_old):
        lookup = local_frame(spark, {"id": with_old}, "id long")
        old = state.choices.join(F.broadcast(lookup), "id", "left_semi").toPandas()
        at = np.searchsorted(ids[live], old["id"]) * n_iters + old["t"].to_numpy() - 1
        old_src[at], old_pos[at] = old["src"], old["pos"]
    rows = np.repeat(live, n_iters)
    keep = keep_rule(old_src, csrc, rows, new_nbrs, rows, old_nbrs)
    dec = pd.DataFrame(
        {
            "id": cid,
            "t": ct,
            "src": np.where(keep, old_src, csrc),
            "pos": np.where(keep, old_pos, cpos),
        }
    )
    # The new choice table: the old one with the affected vertices' rows
    # swapped for the decisions.
    new_choices, _ = materialize(
        state.choices.join(
            F.broadcast(local_frame(spark, vert[["id"]], "id long")), "id", "left_anti"
        ).unionByName(
            local_frame(spark, dec, "id long, t int, src long, pos int")
        ),
        N_STATE_PARTS,
    )

    # --- Phase 2: Correction Propagation ----------------------------------
    # Round 0: re-picked rows fetch their new source label from the
    # pre-update labels (every other row still holds its old value, and
    # stale reads are repaired by the message cascade below, exactly as in
    # Algorithm 2). A new vertex's labels there are its anchor placeholder,
    # its id, so the driver answers those; the other sources are one exact
    # (id, t) lookup. Every source exists, so there is one message per
    # re-picked row. From here on, messages CARRY the new label value: the
    # receiver fan-out join delivers (receiver_id, receiver_t, new_value)
    # in one pass, so a round needs no label lookups and no compare pass —
    # receivers are simply re-notified whenever their source was rewritten,
    # and the t-monotone receiver DAG bounds the cascade by the propagation
    # tree depth (O(log T) expected, <= T worst case).
    picked = dec[~keep]
    new_ids = ids[old_deg == 0]
    wanted = picked[["src", "pos"]].drop_duplicates()
    from_new = np.isin(wanted["src"].to_numpy(), new_ids)
    found = [wanted[from_new].assign(label=wanted["src"][from_new])]
    if not from_new.all():
        lookup = local_frame(spark, wanted[~from_new], "id long, t int")
        got = state.labels.join(F.broadcast(lookup), ["id", "t"]).toPandas()
        found.append(got.set_axis(["src", "pos", "label"], axis=1))
    sources = pd.concat(found).astype(np.int64)
    wave = picked.merge(sources, on=["src", "pos"])[["id", "t", "label"]]
    waves = [wave]
    round_deltas: List[int] = []
    while len(wave):
        if len(round_deltas) > n_iters + 1:
            raise RuntimeError("correction propagation did not converge")
        round_deltas.append(len(wave))
        # A receiver's t exceeds its source's pos, so rows at t = T have
        # no receivers and need no scan.
        senders = wave[wave["t"] < n_iters]
        if senders.empty:
            break
        s = local_frame(spark, senders, "sid long, st int, slabel long")
        wave = (
            new_choices.join(
                F.broadcast(s),
                (new_choices["src"] == s["sid"]) & (new_choices["pos"] == s["st"]),
            )
            .select(new_choices["id"], "t", F.col("slabel").alias("label"))
            .toPandas()
        )
        waves.append(wave)

    # Latest write wins; a row written in round 0 is a re-picked one. η
    # counts on the label write: only overlaid rows can differ from the
    # pre-update labels, and every re-picked row is overlaid.
    overlay = (
        pd.concat([w.assign(round=r) for r, w in enumerate(waves)])
        .astype(np.int64)
        .groupby(["id", "t"], as_index=False, sort=False)
        .agg(new_label=("label", "last"), repicked=("round", "min"))
    )
    overlay["repicked"] = overlay["repicked"] == 0
    # The pre-update labels: the old ones minus dropped vertices, plus the
    # anchor rows ``(id, t, id)`` of new vertices.
    labels_init = state.labels
    dropped = ids[new_deg == 0]
    if len(dropped):
        gone = local_frame(spark, {"id": dropped}, "id long")
        labels_init = labels_init.join(F.broadcast(gone), "id", "left_anti")
    if len(new_ids):
        anchors = {
            "id": np.repeat(new_ids, n_iters + 1),
            "t": np.tile(np.arange(n_iters + 1), len(new_ids)),
            "label": np.repeat(new_ids, n_iters + 1),
        }
        labels_init = labels_init.unionByName(
            local_frame(spark, anchors, "id long, t int, label long")
        )
    value_changed = F.col("new_label") != F.col("label")
    labels, seen = materialize(
        labels_init.join(
            F.broadcast(
                local_frame(
                    spark, overlay, "id long, t int, new_label long, repicked boolean"
                )
            ),
            ["id", "t"],
            "left",
        ),
        N_STATE_PARTS,
        "id",
        "t",
        F.coalesce("new_label", "label").alias("label"),
        n_value_changed=F.count_if(value_changed),
        eta=F.count_if(value_changed | F.col("repicked")),
    )

    new_state = replace(
        state,
        adjacency=new_adj,
        choices=new_choices,
        labels=labels,
        epoch=epoch,
    )
    stats = UpdateStats(
        m_inserted=m_a,
        m_deleted=m_d,
        n_affected_vertices=len(ids),
        n_repicked=len(waves[0]),
        n_value_changed=seen["n_value_changed"],
        eta=seen["eta"],
        round_deltas=round_deltas,
    )
    return new_state, stats
