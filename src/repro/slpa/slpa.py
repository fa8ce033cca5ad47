"""SLPA baseline (paper Section II-B) on Spark DataFrames.

The Speaker–Listener Label Propagation Algorithm of Xie & Szymanski: every
vertex keeps a growing memory of labels; per iteration every *speaker* sends
each neighboring *listener* one label sampled uniformly from its memory; the
listener appends the plurality winner of the received multiset (ties broken
uniformly). After T iterations, labels below frequency threshold τ are
dropped and the surviving labels name the (overlapping) communities.

This is the O(|E|)-messages-per-iteration baseline that rSLPA's Algorithm 1
reduces to O(|V|). The graph is the sorted adjacency table that rSLPA
keeps, and the memory is the long table ``(id, t, label)`` that rSLPA uses
for its labels. Per iteration a ``mapInPandas`` over the (listener,
speaker) pairs, one ``explode`` of the adjacency, picks from ids alone the
memory slot ``t`` each speaker sends; one join on ``(id, t)`` fetches that
single label per pair, so one label per edge direction travels. The
listener's vote is the vectorized ``plurality_winners`` kernel, shared with
``repro.slpa.reference``.
All sampling and tie-breaking uses the shared splitmix64 draws
(`repro.core.rand`), keyed by ``(iteration, listener[, speaker])``, so the
reference reproduces this engine bit-for-bit.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import graph as G
from repro.core import rand
from repro.core.checkpoint import N_STATE_PARTS, materialize, release


def plurality_winners(
    listeners: np.ndarray, labels: np.ndarray, seed: int, t: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-listener plurality label with uniform tie-break (vectorized).

    Ties are ordered ascending and the pick is
    ``hash_mod(seed, TIE, k, t, listener)``. Both engines vote with this
    kernel. Returns ``(unique_listeners, winners)`` in listener order.
    """
    order = np.lexsort((labels, listeners))
    l = listeners[order]
    lab = labels[order]
    m = len(l)
    grp_new = np.empty(m, dtype=bool)
    grp_new[0] = True
    grp_new[1:] = (l[1:] != l[:-1]) | (lab[1:] != lab[:-1])
    grp_idx = np.cumsum(grp_new) - 1
    counts = np.bincount(grp_idx)
    grp_l = l[grp_new]
    grp_lab = lab[grp_new]
    n_grp = len(grp_l)
    seg_new = np.empty(n_grp, dtype=bool)
    seg_new[0] = True
    seg_new[1:] = grp_l[1:] != grp_l[:-1]
    seg_starts = np.flatnonzero(seg_new)
    seg_idx = np.cumsum(seg_new) - 1
    maxc = np.maximum.reduceat(counts, seg_starts)
    is_tie = counts == maxc[seg_idx]
    k_ties = np.add.reduceat(is_tie.astype(np.int64), seg_starts)
    uniq_l = grp_l[seg_starts]
    pick = rand.hash_mod(seed, rand.TIE, k_ties, t, uniq_l)
    cs = np.cumsum(is_tie.astype(np.int64))
    before = np.zeros(len(seg_starts), dtype=np.int64)
    if len(seg_starts) > 1:
        before[1:] = cs[seg_starts[1:] - 1]
    tie_rank = cs - 1 - before[seg_idx]
    sel = is_tie & (tie_rank == pick[seg_idx])
    return uniq_l, grp_lab[sel]


def _send_kernel(seed: int, t: int):
    """Speaker side: the memory slot each speaker sends each listener.

    At iteration ``t`` every memory holds ``t`` labels, so the pick needs
    only the pair's ids; the label itself comes from a join on ``(id, t)``.
    """

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            listeners = pdf["listener"].to_numpy(np.int64)
            speakers = pdf["speaker"].to_numpy(np.int64)
            slots = rand.hash_mod(seed, rand.SEND, t, t, listeners, speakers)
            yield pd.DataFrame(
                {"listener": listeners, "id": speakers, "t": slots}
            )

    return gen


def _vote_kernel(seed: int, t: int):
    """Listener side: the ``(id, t, label)`` memory rows of iteration ``t``."""

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if pdf.empty:  # plurality_winners indexes [0]
                continue
            labs = pdf["labs"]
            listeners = np.repeat(
                pdf["listener"].to_numpy(np.int64), labs.map(len).to_numpy()
            )
            labels = np.hstack(labs.to_list())
            ids, wins = plurality_winners(listeners, labels, seed, t)
            yield pd.DataFrame({"id": ids, "t": t, "label": wins})

    return gen


def run_slpa(edges: DataFrame, n_iters: int, seed: int) -> DataFrame:
    """T iterations of SLPA; returns the memory table ``(id, t, label)``.

    One row per vertex and ``t ∈ [0..T]``; row ``t`` is the label the
    vertex appended at iteration ``t`` (``t = 0``: its own id).
    """
    G.check_ids(edges)
    adj, _ = materialize(G.adjacency(edges), N_STATE_PARTS)
    pairs = adj.select(
        F.col("id").alias("listener"), F.explode("nbrs").alias("speaker")
    )
    mem, _ = materialize(
        adj.select("id", F.lit(0).alias("t"), F.col("id").alias("label")),
        N_STATE_PARTS,
    )
    # Each union adds the iteration's partitions; every write coalesces back
    # to the t = 0 memory's count, so thresholding reads few partitions.
    n_parts = mem.rdd.getNumPartitions()
    for t in range(1, n_iters + 1):
        sent = pairs.mapInPandas(
            _send_kernel(seed, t), schema="listener long, id long, t int"
        )
        heard = (
            sent.join(mem, ["id", "t"])
            .groupBy("listener")
            .agg(F.collect_list("label").alias("labs"))
        )
        won = heard.mapInPandas(
            _vote_kernel(seed, t), schema="id long, t int, label long"
        )
        prev = mem
        mem, _ = materialize(mem.unionByName(won), n_parts)
        release(prev)
    release(adj)
    return mem


def memory_counts(mem: DataFrame) -> DataFrame:
    """Per-vertex label histograms ``(id, label, cnt)`` of a memory table."""
    return mem.groupBy("id", "label").agg(F.count("*").alias("cnt"))


def threshold_communities(
    counts: pd.DataFrame, tau: float, n_iters: int
) -> List[Set[int]]:
    """SLPA thresholding: drop labels with frequency < τ, group by label.

    Shared by both engines (input is a collected pandas histogram).
    Communities of < 2 vertices and duplicate vertex sets are dropped.
    """
    keep = counts[counts["cnt"] >= tau * (n_iters + 1) - 1e-9]
    by_label: Dict[int, Set[int]] = {}
    for vid, lab in zip(keep["id"], keep["label"]):
        by_label.setdefault(int(lab), set()).add(int(vid))
    seen: Set[frozenset] = set()
    out: List[Set[int]] = []
    for lab in sorted(by_label):
        s = by_label[lab]
        fs = frozenset(s)
        if len(s) >= 2 and fs not in seen:
            seen.add(fs)
            out.append(s)
    return out


def slpa_communities(
    mem: DataFrame, tau: float, n_iters: int
) -> List[Set[int]]:
    """End-to-end thresholding from a Spark memory table ``(id, t, label)``."""
    counts = memory_counts(mem).toPandas()
    return threshold_communities(counts, tau, n_iters)
