"""Incremental updating after an edge-edit batch (paper Section IV, Alg. 2).

Every per-batch frame is built from the batch itself, never by comparing the
old and new big tables: one **vertex frame** with the old and new neighbor
arrays of the affected vertices (those whose neighbor array the batch
changes, built by ``repro.core.graph.edit`` with one lookup of the batch's
endpoints in the adjacency), the **decision frame** of their (vertex,
iteration) rows, and one **message frontier** per correction round. The new
state's tables are each written once, as checkpoints
(``repro.core.checkpoint``): the adjacency and choice tables with the vertex
and decision frames' rows swapped in, the label table with every round's
latest message applied. So a state is plain checkpoints however many
batches it has seen. The batch's counts are observed on these writes, and
the per-batch frames are released once the new tables are written.

Dataflow note: these frames are small relative to the label/choice tables,
so every join against a big table broadcasts the small side explicitly
(``F.broadcast``). This is the DataFrame equivalent of the paper's point
that Correction Propagation sends *small messages to receivers* rather than
reshuffling global state — and it is what makes the incremental path
cheaper than from-scratch resolution (whose pointer-doubling self-joins are
inherently big-big shuffles). The session-level broadcast-join ban from
``repro.spark_session`` stays in force for everything else.

Two phases, exactly as the paper structures them:

**1. Handling adjacent edge changes** (Section IV-A). The paper's device
is to "pretend we use the same series of random numbers to perform label
propagation on the new graph": every (vertex, iteration) row of an affected
vertex draws a candidate ``(src, pos)`` with Algorithm 1's own draw
(``repro.core.choices.draw_choices``) on its new neighbor array at the
batch's epoch. A row keeps its old ``(src, pos)`` iff the old ``src`` is
still a neighbor and the candidate ``src`` is an old neighbor; otherwise it
takes the candidate. This realizes the paper's three categories:

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
form the dirty frontier; each round fetches ``l_src^pos`` for the frontier,
applies value changes, and forwards them to the *receivers* — the rows whose
``(src, pos)`` equals a changed ``(id, t)``. The paper materializes receiver
records ``R_i``; here the choice table itself is the record and receivers
are recovered by the reverse equi-join on ``(src, pos)`` — the same
information, maintained for free (DESIGN.md Section 2). Because a receiver's
iteration is strictly larger than its source's, the loop terminates within T
rounds; in practice it runs for the depth of the perturbed propagation
trees, which is O(log T) in expectation.

The final label table provably equals a from-scratch resolution of the
updated choice table — the paper's "same communities as from scratch" claim,
asserted bit-for-bit in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import List

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import graph as G
from repro.core.checkpoint import N_STATE_PARTS, materialize, release
from repro.core.choices import draw_choices
from repro.core.rslpa import RslpaState

N_BATCH_PARTS = 8  # partitions of every per-batch frame; they are small


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

    # The affected vertices are those whose neighbor array the batch
    # changes. A null ``old_nbrs`` marks a new vertex, a null ``new_nbrs``
    # one that dropped to degree 0. Each added or removed edge appears at
    # both of its endpoints.
    empty = F.array().cast("array<long>")
    old_nbrs = F.coalesce("old_nbrs", empty)
    new_nbrs = F.coalesce("new_nbrs", empty)
    vert, seen = materialize(
        G.edit(state.adjacency, inserts, deletes),
        N_BATCH_PARTS,
        n_affected=F.count("*"),
        ends_a=F.sum(F.size(F.array_except(new_nbrs, old_nbrs))),
        ends_d=F.sum(F.size(F.array_except(old_nbrs, new_nbrs))),
    )
    n_affected = seen["n_affected"]
    if n_affected == 0:
        release(vert)
        return state, UpdateStats(0, 0, 0, 0, 0, 0)
    m_a, m_d = seen["ends_a"] // 2, seen["ends_d"] // 2
    new_adj, _ = materialize(G.apply_edits(state.adjacency, vert), N_STATE_PARTS)

    # --- Phase 1: re-pick affected rows -----------------------------------
    # The candidates are Algorithm 1's draw on the new graph at this epoch;
    # the keep rule is the module docstring's. Rows of a vertex without old
    # rows (new, or degree 0 before) always take the candidate.
    cand = draw_choices(
        vert.where(F.col("new_nbrs").isNotNull()).select(
            "id", F.col("new_nbrs").alias("nbrs")
        ),
        n_iters,
        seed,
        epoch,
    )
    old_rows = state.choices.join(F.broadcast(vert), "id").select(
        "id",
        "t",
        F.col("src").alias("old_src"),
        F.col("pos").alias("old_pos"),
        "old_nbrs",
        "new_nbrs",
    )
    keep = F.coalesce(
        F.array_contains("new_nbrs", F.col("old_src"))
        & F.array_contains("old_nbrs", F.col("src")),
        F.lit(False),
    )
    dec, _ = materialize(
        cand.join(old_rows, ["id", "t"], "left").select(
            "id",
            "t",
            F.when(keep, F.col("old_src")).otherwise(F.col("src")).alias("src"),
            F.when(keep, F.col("old_pos")).otherwise(F.col("pos")).alias("pos"),
            (~keep).alias("changed"),
        ),
        N_BATCH_PARTS,
    )
    # The new choice table: the old one with the affected vertices' rows
    # swapped for the decision frame's.
    new_choices, _ = materialize(
        state.choices.join(
            F.broadcast(vert.select("id")), "id", "left_anti"
        ).unionByName(dec.select("id", "t", "src", "pos")),
        N_STATE_PARTS,
    )

    # --- Phase 2: Correction Propagation ----------------------------------
    # Lazy pre-update snapshot: old labels minus dropped vertices, plus
    # anchor rows for new vertices (both sides of ``vert``).
    new_vertex_rows = vert.where(F.col("old_nbrs").isNull()).select(
        "id",
        F.explode(F.sequence(F.lit(0), F.lit(n_iters))).alias("t"),
        F.col("id").alias("label"),
    )
    labels_init = state.labels.join(
        F.broadcast(vert.where(F.col("new_nbrs").isNull()).select("id")),
        "id",
        "left_anti",
    ).unionByName(new_vertex_rows)
    init_view = labels_init.toDF("lid", "lt", "llabel")

    # Round 0: re-picked rows fetch their new source label from the snapshot
    # (every other row still holds its old value, and stale reads are
    # repaired by the message cascade below, exactly as in Algorithm 2). The
    # source row always exists, so there is one message per re-picked row.
    # From here on, messages CARRY the new label value: the receiver fan-out
    # join delivers (receiver_id, receiver_t, new_value) in one pass, so a
    # round needs no label lookups and no compare pass — receivers are simply
    # re-notified whenever their source was rewritten, and the t-monotone
    # receiver DAG bounds the cascade by the propagation tree depth
    # (O(log T) expected, <= T worst case). Only the frontier is kept per
    # round; the label table is written once after the loop.
    frontier = dec.where("changed")
    dirty, seen = materialize(
        F.broadcast(frontier)
        .join(
            init_view,
            (frontier["src"] == init_view["lid"])
            & (frontier["pos"] == init_view["lt"]),
        )
        .select("id", "t", F.col("llabel").alias("label")),
        N_BATCH_PARTS,
        n_dirty=F.count("*"),
    )
    waves = [dirty.withColumn("round", F.lit(0))]
    n_repicked = seen["n_dirty"]
    round_deltas: List[int] = []
    while seen["n_dirty"] > 0:
        if len(round_deltas) > n_iters + 1:
            raise RuntimeError("correction propagation did not converge")
        round_deltas.append(seen["n_dirty"])
        sources = dirty.toDF("sid", "st", "slabel")
        dirty, seen = materialize(
            new_choices.join(
                F.broadcast(sources),
                (new_choices["src"] == sources["sid"])
                & (new_choices["pos"] == sources["st"]),
            ).select(new_choices["id"], "t", F.col("slabel").alias("label")),
            N_BATCH_PARTS,
            n_dirty=F.count("*"),
        )
        waves.append(dirty.withColumn("round", F.lit(len(round_deltas))))

    # Latest write wins; a row written in round 0 is a re-picked one. η
    # counts on the label write: only overlaid rows can differ from the
    # snapshot, and every re-picked row is overlaid.
    overlay = (
        reduce(DataFrame.unionByName, waves)
        .groupBy("id", "t")
        .agg(
            F.max_by("label", "round").alias("new_label"),
            (F.min("round") == 0).alias("repicked"),
        )
    )
    value_changed = F.col("new_label") != F.col("label")
    labels, seen = materialize(
        labels_init.join(F.broadcast(overlay), ["id", "t"], "left"),
        N_STATE_PARTS,
        "id",
        "t",
        F.coalesce("new_label", "label").alias("label"),
        n_value_changed=F.count_if(value_changed),
        eta=F.count_if(value_changed | F.col("repicked")),
    )
    for done in [vert, dec, *waves]:
        release(done)

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
        n_affected_vertices=n_affected,
        n_repicked=n_repicked,
        n_value_changed=seen["n_value_changed"],
        eta=seen["eta"],
        round_deltas=round_deltas,
    )
    return new_state, stats
