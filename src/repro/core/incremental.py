"""Incremental updating after an edge-edit batch (paper Section IV, Alg. 2).

Every per-batch frame is held on the driver, as pandas and NumPy arrays,
and is built from the batch itself, never by comparing the old and new big
tables: the **vertex frame** with the old and new neighbor arrays of the
affected vertices (those whose neighbor array the batch changes, from
``repro.core.graph.edit``), the **decisions** of their (vertex, iteration)
rows, and one **message wave** per correction round. Spark does only what
needs the big tables: the lookups of the rows these frames name (the batch
endpoints' old choice rows, the re-picked rows' source labels, each round's
receivers) and the three writes of the new state, each a checkpoint
(``repro.core.checkpoint``): the adjacency and choice tables with the
affected vertices' rows swapped in (``checkpoint.swap``), and the label
table with every overlaid row's new label applied. So a state is plain
checkpoints however many batches it has seen. The batch's counts are read
off the driver's frames, and ``n_value_changed`` and η off the label write.

Only four kinds of step wait for one another: the batch collect, the
endpoint lookups, the receiver lookups and the label write. The old choice
rows are fetched beside ``edit``'s adjacency lookup, and the adjacency
write, the choice write and the source-label lookup run on background
threads while the cascade runs; the call returns once all of them have.

Dataflow note: a per-batch frame reaches Spark as a one-partition local
frame typed by the table it meets (``checkpoint.local_frame``), which the
lookup or write broadcasts, and each lookup's result is collected. Both are
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
form the round-0 wave; every later wave is the *receivers* of the previous
one — the rows whose ``(src, pos)`` equals a sender's ``(id, t)``. The
paper materializes receiver records ``R_i``; here the choice table itself
is the record and receivers are recovered by the reverse equi-join on
``(src, pos)`` — the same information, maintained for free (DESIGN.md
Section 2). A round looks its receivers up in the pre-update choice table,
drops the affected vertices' rows on the driver and adds the decisions
that match, which is the new choice table's answer without waiting for its
write. A receiver's iteration is strictly larger than its source's
position, so rows at ``t = T`` send nothing, and the loop terminates within
T rounds; in practice it runs for the depth of the perturbed propagation
trees, which is O(log T) in expectation.

The waves carry no labels. Once the cascade stops, the driver gives every
overlaid row its source's new label (``overlay_labels``): the overlaid
source's, by resolve's chain kernel, or else the source's pre-update
label, which only round-0 rows need and one lookup fetches. Every row
whose value can change is overlaid, since its ``(src, pos)`` changed or
its source was overlaid.

The final label table provably equals a from-scratch resolution of the
updated choice table — the paper's "same communities as from scratch" claim,
asserted bit-for-bit in tests.
"""
from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.util import inheritable_thread_target

from repro.core import graph as G
from repro.core.checkpoint import (
    N_STATE_PARTS,
    local_frame,
    lookup,
    materialize,
    swap,
)
from repro.core.choices import csr, draw_choices_arrays
from repro.core.resolve import chain_ends
from repro.core.rslpa import RslpaState

# (flat, offsets): row r is flat[offsets[r]:offsets[r+1]]
Csr = Tuple[np.ndarray, np.ndarray]

OVERLAY_SCHEMA = (
    T.StructType().add("id", T.LongType()).add("t", T.IntegerType())
    .add("new_label", T.LongType()).add("repicked", T.BooleanType())
)


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


def overlay_labels(rows: pd.DataFrame, sources: pd.DataFrame) -> np.ndarray:
    """The new label of each overlaid row of ``rows`` (``id, t, src, pos``,
    distinct ``(id, t)``): its source's new label where the source is an
    overlaid row too, else the source's pre-update label from ``sources``
    (``src, pos, label``). A source's t is below its row's, so each row's
    chain of overlaid sources (``resolve.chain_ends``) ends at a row whose
    source is not overlaid, and that source's label is the row's."""
    end = chain_ends(*(rows[c].to_numpy() for c in ("id", "t", "src", "pos")))
    ends = pd.MultiIndex.from_frame(rows[["src", "pos"]].iloc[end])
    at = pd.MultiIndex.from_frame(sources[["src", "pos"]]).get_indexer(ends)
    return sources["label"].to_numpy()[at]


def apply_batch(
    state: RslpaState, inserts: DataFrame | None, deletes: DataFrame | None
) -> tuple[RslpaState, UpdateStats]:
    """Evolve ``state`` under one batch of edge inserts/deletes.

    Every table of the new state is a fresh checkpoint, and every step has
    finished when the call returns, so nothing reads ``state`` after it.
    ``state``'s own tables are read, never released: a caller that drops
    ``state`` frees them with ``state.release()``, but only when the
    returned state ``is not state`` (a batch that changes no edge returns
    ``state`` itself).
    """
    for edits in (inserts, deletes):
        if edits is not None:
            G.check_ids(edits)
    n_iters, seed = state.n_iters, state.seed
    epoch = state.epoch + 1
    spark = state.adjacency.sparkSession
    batch = G.collect_batch(inserts, deletes)
    ends = np.unique(batch[["src", "dst"]].to_numpy())
    if not len(ends):
        return state, UpdateStats(0, 0, 0, 0, 0, 0)

    with ThreadPoolExecutor(max_workers=3) as pool:

        def background(fn, *args) -> Future:
            # Under the caller's job group, properties and tags.
            return pool.submit(inheritable_thread_target(spark)(fn), *args)

        # The endpoints' old choice rows come in while ``edit`` fetches their
        # adjacency rows. The affected vertices, sorted by id, are those
        # endpoints whose neighbor array changes; each added or removed edge
        # appears at both of its endpoints.
        old_rows = background(lookup, state.choices, {"id": ends})
        vert = G.edit(state.adjacency, batch)
        if vert.empty:
            old_rows.result()
            return state, UpdateStats(0, 0, 0, 0, 0, 0)
        ids = vert["id"].to_numpy(dtype=np.int64)
        new_nbrs, old_nbrs = csr(vert["new_nbrs"]), csr(vert["old_nbrs"])
        new_deg, old_deg = np.diff(new_nbrs[1]), np.diff(old_nbrs[1])
        n_kept = in_rows(new_nbrs[0], np.repeat(np.arange(len(ids)), new_deg), old_nbrs)
        m_a, m_d = (int(len(n[0]) - n_kept.sum()) // 2 for n in (new_nbrs, old_nbrs))
        # Each write keeps its input table's partition count. The plans are
        # built on this thread, so ``apply_edits`` stays with the other calls
        # through the module.
        n_adj = state.adjacency.rdd.getNumPartitions()
        new_adj = background(materialize, G.apply_edits(state.adjacency, vert), n_adj)

        # --- Phase 1: re-pick affected rows -------------------------------
        # The candidates are Algorithm 1's draw on the new graph at this
        # epoch; the keep rule is the module docstring's. A vertex without
        # old rows (new, or degree 0 before) has an empty old set, so it
        # always takes the candidate.
        live = np.flatnonzero(new_deg > 0)
        # Dropped vertices' rows are empty, so the live rows' starts and the
        # end of the flat array are the live vertices' own CSR offsets.
        live_offsets = np.append(new_nbrs[1][live], len(new_nbrs[0]))
        cid, ct, csrc, cpos = draw_choices_arrays(
            ids[live], new_nbrs[0], live_offsets, n_iters, seed, epoch
        )
        old_src, old_pos = np.zeros((2, len(cid)), dtype=np.int64)
        old = old_rows.result()
        old = old[np.isin(old["id"], ids[live])]
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
        n_choices = state.choices.rdd.getNumPartitions()
        new_choices = background(materialize, swap(state.choices, ids, dec), n_choices)

        # --- Phase 2: Correction Propagation ------------------------------
        # The re-picked rows' sources in the pre-update labels, for the
        # label pass after the cascade. A new vertex's labels there are its
        # anchor placeholder, its id, so the driver answers those.
        picked = dec[~keep]
        new_ids = ids[old_deg == 0]
        wanted = picked[["src", "pos"]].drop_duplicates()
        from_new = np.isin(wanted["src"].to_numpy(), new_ids)
        old_labels = None
        if not from_new.all():
            keys = wanted[~from_new].set_axis(["id", "t"], axis=1)
            old_labels = background(lookup, state.labels, keys)
        # Each wave is the receivers of the last one's senders; a receiver's
        # t exceeds its source's pos, so rows at t = T have no receivers and
        # need no lookup.
        waves = [picked]
        while len(waves[-1]):
            if len(waves) > n_iters + 1:
                raise RuntimeError("correction propagation did not converge")
            senders = waves[-1].loc[waves[-1]["t"] < n_iters, ["id", "t"]]
            if senders.empty:
                break
            senders = senders.set_axis(["src", "pos"], axis=1)
            got = lookup(state.choices, senders).astype(np.int64)
            mine = dec.merge(senders)
            waves.append(pd.concat([got[~np.isin(got["id"], ids)], mine]))
        round_deltas = [len(w) for w in waves if len(w)]

        # Every row of a wave is overlaid once; round 0 comes first, and its
        # rows are the re-picked ones. η counts on the label write: only
        # overlaid rows can differ from the pre-update labels, and every
        # re-picked row is overlaid.
        overlaid = pd.concat(waves, ignore_index=True).drop_duplicates(["id", "t"])
        found = [wanted[from_new].assign(label=wanted["src"][from_new])]
        if old_labels is not None:
            found.append(old_labels.result().set_axis(["src", "pos", "label"], axis=1))
        sources = pd.concat(found).astype(np.int64)
        overlay = pd.DataFrame(
            {
                "id": overlaid["id"],
                "t": overlaid["t"],
                "new_label": overlay_labels(overlaid, sources),
                "repicked": np.arange(len(overlaid)) < len(picked),
            }
        )
        # The pre-update labels: the old ones minus dropped vertices, plus
        # the anchor rows ``(id, t, id)`` of new vertices.
        anchors = {
            "id": np.repeat(new_ids, n_iters + 1),
            "t": np.tile(np.arange(n_iters + 1), len(new_ids)),
            "label": np.repeat(new_ids, n_iters + 1),
        }
        labels_init = swap(state.labels, ids[new_deg == 0], anchors)
        value_changed = F.col("new_label") != F.col("label")
        labels, seen = materialize(
            labels_init.join(
                F.broadcast(local_frame(spark, overlay, OVERLAY_SCHEMA)),
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
            adjacency=new_adj.result()[0],
            choices=new_choices.result()[0],
            labels=labels,
            epoch=epoch,
        )

    stats = UpdateStats(
        m_inserted=m_a,
        m_deleted=m_d,
        n_affected_vertices=len(ids),
        n_repicked=len(picked),
        n_value_changed=seen["n_value_changed"],
        eta=seen["eta"],
        round_deltas=round_deltas,
    )
    return new_state, stats
