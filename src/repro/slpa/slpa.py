"""SLPA baseline (paper Section II-B) on Spark DataFrames.

The Speaker–Listener Label Propagation Algorithm of Xie & Szymanski: every
vertex keeps a growing memory of labels; per iteration every *speaker* sends
each neighboring *listener* one label sampled uniformly from its memory; the
listener appends the plurality winner of the received multiset (ties broken
uniformly). After T iterations, labels below frequency threshold τ are
dropped and the surviving labels name the (overlapping) communities.

This is the O(|E|)-messages-per-iteration baseline that rSLPA's Algorithm 1
reduces to O(|V|). All sampling and tie-breaking uses the shared splitmix64
draws (`repro.core.rand`), keyed by ``(iteration, listener[, speaker])``, so
``repro.slpa.reference`` reproduces this engine bit-for-bit.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Set

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import graph as G
from repro.core import rand

_SENT_SCHEMA = T.StructType(
    [
        T.StructField("listener", T.LongType(), False),
        T.StructField("lab", T.LongType(), False),
    ]
)
_WIN_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("win", T.LongType(), False),
    ]
)


def _sent_kernel(seed: int, t: int):
    """Speaker-side sampling: one label per (listener, speaker) pair."""

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if pdf.empty:
                continue
            listeners = pdf["listener"].to_numpy(np.int64)
            speakers = pdf["speaker"].to_numpy(np.int64)
            mems = pdf["labels"]
            lens = mems.map(len).to_numpy(np.int64)
            offsets = np.zeros(len(lens) + 1, dtype=np.int64)
            np.cumsum(lens, out=offsets[1:])
            flat = np.concatenate(
                [np.asarray(a, dtype=np.int64) for a in mems]
            )
            idx = rand.hash_mod(seed, rand.SEND, lens, t, listeners, speakers)
            yield pd.DataFrame(
                {"listener": listeners, "lab": flat[offsets[:-1] + idx]}
            )

    return gen


def _winner_kernel(seed: int, t: int):
    """Listener-side plurality vote with uniform tie-break over sorted ties."""

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if pdf.empty:
                continue
            ids: List[int] = []
            wins: List[int] = []
            for vid, labs in zip(pdf["listener"], pdf["labs"]):
                arr = np.asarray(labs, dtype=np.int64)  # pre-sorted
                uniq, cnt = np.unique(arr, return_counts=True)
                ties = uniq[cnt == cnt.max()]  # ascending
                pick = int(rand.hash_mod(seed, rand.TIE, len(ties), t, vid))
                ids.append(int(vid))
                wins.append(int(ties[pick]))
            yield pd.DataFrame({"id": ids, "win": wins})

    return gen


def run_slpa(edges: DataFrame, n_iters: int, seed: int) -> DataFrame:
    """T iterations of SLPA; returns memory frame ``(id, labels array)``."""
    adj = G.adjacency(G.canonical_edges(edges))
    pairs = adj.select(
        F.col("id").alias("listener"), F.explode("nbrs").alias("speaker")
    ).localCheckpoint(eager=True)
    mem = adj.select("id", F.array(F.col("id")).alias("labels")).localCheckpoint(
        eager=True
    )
    for t in range(1, n_iters + 1):
        joined = pairs.join(
            mem.select(F.col("id").alias("speaker"), "labels"), "speaker"
        )
        sent = joined.mapInPandas(_sent_kernel(seed, t), schema=_SENT_SCHEMA)
        grouped = sent.groupBy("listener").agg(
            F.sort_array(F.collect_list("lab")).alias("labs")
        )
        winners = grouped.mapInPandas(_winner_kernel(seed, t), schema=_WIN_SCHEMA)
        mem = (
            mem.join(winners, "id", "left")
            .select(
                "id",
                F.when(
                    F.col("win").isNotNull(),
                    F.concat("labels", F.array(F.col("win"))),
                )
                .otherwise(F.col("labels"))
                .alias("labels"),
            )
            .localCheckpoint(eager=True)
        )
    return mem


def memory_counts(mem: DataFrame) -> DataFrame:
    """Explode memories into per-vertex label histograms (id, label, cnt)."""
    return (
        mem.select("id", F.explode("labels").alias("label"))
        .groupBy("id", "label")
        .agg(F.count("*").alias("cnt"))
    )


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
    """End-to-end thresholding from a Spark memory frame."""
    counts = memory_counts(mem).toPandas()
    return threshold_communities(counts, tau, n_iters)
