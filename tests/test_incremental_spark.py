"""Tests for Spark Correction Propagation (repro.core.incremental):
bit-equality against the reference incremental engine, and the
incremental-equals-scratch invariant on the Spark dataflow itself."""
import itertools
import threading

import numpy as np
import pandas as pd
import pytest

from repro.core import incremental
from repro.core.incremental import apply_batch, overlay_labels
from repro.core.resolve import resolve_labels
from repro.core.rslpa import run_static
from repro.reference.incremental_ref import (
    apply_edits_pdf,
    ref_apply_batch,
    ref_run_static,
)
from repro.reference.rslpa_ref import labels_long
from repro.webgraph.generator import edit_batch, web_graph

T_ITERS = 8
SEED = 5
APPLY_JOBS = 20  # Spark jobs of ``_fixed_batch`` on ``base``


def _sorted_labels(df):
    return (
        df.toPandas()
        .sort_values(["id", "t"])
        .reset_index(drop=True)
        .astype("int64")
    )


@pytest.fixture(scope="module")
def base(spark):
    pdf = web_graph(n=250, avg_degree=6, seed=1)
    st = run_static(spark.createDataFrame(pdf), T_ITERS, SEED)
    return st, pdf


def _fixed_batch(pdf):
    return edit_batch(pdf, 30, seed=9)


def _apply_counted(spark, st, ins, dele):
    """``apply_batch`` of pandas edits under a job group of its own; returns
    its result and the number of Spark jobs it ran."""
    frames = [None if e is None else spark.createDataFrame(e) for e in (ins, dele)]
    sc = spark.sparkContext
    group = f"apply-{next(_GROUPS)}"
    sc.setJobGroup(group, group)
    try:
        out = apply_batch(st, *frames)
    finally:
        sc.setJobGroup("", "")
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


_GROUPS = itertools.count()


def _is_checkpoint(df):
    """A bare checkpoint: its analyzed plan is one ``LogicalRDD`` leaf."""
    return df._jdf.queryExecution().analyzed().nodeName() == "LogicalRDD"


def _nbrs(st):
    return {int(r["id"]): list(r["nbrs"]) for r in st.adjacency.collect()}


def _ref_nbrs(g):
    return {
        int(v): g.nbrs_flat[g.offsets[i] : g.offsets[i + 1]].tolist()
        for i, v in enumerate(g.ids)
    }


def _pairs(pairs):
    return pd.DataFrame(pairs, columns=["src", "dst"], dtype="int64")


def _bit_identical_cases(pdf):
    """(name, batches) pairs; each batch is an ``(inserts, deletes)`` pair of
    pandas frames or None, and the batches of one case are chained."""
    rst = ref_run_static(pdf, T_ITERS, SEED)
    edges = rst.edges
    present = {tuple(e) for e in edges.to_numpy().tolist()}
    ids = sorted({v for e in present for v in e})
    absent = [
        (u, v) for u in ids[:20] for v in ids[:20] if u < v and (u, v) not in present
    ]
    e0, e1, e2, e3 = [tuple(e) for e in edges.to_numpy()[[0, 10, 20, 30]].tolist()]
    (p0, p1), (p2, p3) = absent[:2], absent[2:4]
    # The lowest-degree vertex that some row picked as its source.
    deg = pd.concat([edges["src"], edges["dst"]]).value_counts()
    picked = set(rst.src.ravel().tolist())
    leaf = min((d, v) for v, d in deg.items() if v in picked)[1]
    leaf_edges = edges[(edges["src"] == leaf) | (edges["dst"] == leaf)]
    new_id = ids[-1] + 100
    chained = []
    cur = edges
    for seed in range(11, 17):
        ins, dele = edit_batch(cur, 20, seed=seed)
        chained.append((ins, dele))
        cur = apply_edits_pdf(cur, ins, dele)
    return [
        ("random batch", [_fixed_batch(pdf)]),
        (
            "inserted and deleted in one batch",
            [(_pairs([p0, e1]), _pairs([p0, e1]))],
        ),
        ("insert of a present edge", [(_pairs([e0, (new_id, e2[0])]), None)]),
        ("delete of an absent edge", [(None, _pairs([p1, e2]))]),
        (
            "self-loop and reversed duplicate",
            [(_pairs([(ids[3], ids[3]), p2, p2[::-1]]), _pairs([e3[::-1], e3]))],
        ),
        ("vertex drops to degree 0", [(_pairs([p3]), leaf_edges)]),
        ("six chained batches", chained),
        (
            "a batch that changes nothing, then a random batch",
            [(_pairs([e0]), None), edit_batch(pdf, 30, seed=9)],
        ),
    ]


class TestApplyBatch:
    def test_bit_identical_to_reference(self, spark, base):
        st, pdf = base
        rst = ref_run_static(pdf, T_ITERS, SEED)
        for name, batches in _bit_identical_cases(pdf):
            st2, rst2 = st, rst
            for ins, dele in batches:
                st2, stats = apply_batch(
                    st2,
                    None if ins is None else spark.createDataFrame(ins),
                    None if dele is None else spark.createDataFrame(dele),
                )
                rst2, rstats = ref_apply_batch(rst2, ins, dele)
                pd.testing.assert_frame_equal(
                    _sorted_labels(st2.labels),
                    labels_long(rst2.g, rst2.labels)
                    .sort_values(["id", "t"])
                    .reset_index(drop=True)
                    .astype("int64"),
                    obj=name,
                )
                assert _nbrs(st2) == _ref_nbrs(rst2.g), name
                # ``round_deltas`` included: the reference replays the waves.
                got = {k: getattr(stats, k) for k in rstats}
                assert got == rstats, name
                assert st2.epoch == rst2.epoch, name
                for table in (st2.adjacency, st2.choices, st2.labels):
                    assert _is_checkpoint(table), name

    def test_incremental_equals_scratch(self, spark, base):
        """The paper's headline claim as an exact invariant: the maintained
        label table equals a from-scratch resolution of the updated choice
        table, hence identical communities."""
        st, pdf = base
        ins, dele = edit_batch(pdf, 20, seed=4)
        st2, _ = apply_batch(
            st, spark.createDataFrame(ins), spark.createDataFrame(dele)
        )
        scratch = resolve_labels(st2.adjacency, st2.choices)
        pd.testing.assert_frame_equal(
            _sorted_labels(st2.labels), _sorted_labels(scratch)
        )

    def test_choice_row_count_invariant(self, spark, base):
        st, pdf = base
        ins, dele = edit_batch(pdf, 20, seed=4)
        st2, _ = apply_batch(
            st, spark.createDataFrame(ins), spark.createDataFrame(dele)
        )
        assert st2.choices.count() == st2.adjacency.count() * T_ITERS

    def test_empty_batch_is_noop(self, spark, base):
        st, _ = base
        st2, stats = apply_batch(st, None, None)
        assert stats.eta == 0 and stats.rounds == 0
        assert st2 is st

    def test_insert_only_batch(self, spark, base):
        st, pdf = base
        ins, _ = edit_batch(pdf, 20, seed=7)
        st2, stats = apply_batch(st, spark.createDataFrame(ins), None)
        assert stats.m_inserted == 10 and stats.m_deleted == 0
        scratch = resolve_labels(st2.adjacency, st2.choices)
        pd.testing.assert_frame_equal(
            _sorted_labels(st2.labels), _sorted_labels(scratch)
        )

    def test_delete_only_batch(self, spark, base):
        st, pdf = base
        _, dele = edit_batch(pdf, 20, seed=7)
        st2, stats = apply_batch(st, None, spark.createDataFrame(dele))
        assert stats.m_deleted == 10 and stats.m_inserted == 0
        scratch = resolve_labels(st2.adjacency, st2.choices)
        pd.testing.assert_frame_equal(
            _sorted_labels(st2.labels), _sorted_labels(scratch)
        )

    def test_epoch_advances(self, spark, base):
        st, pdf = base
        ins, dele = edit_batch(pdf, 10, seed=2)
        st2, _ = apply_batch(
            st, spark.createDataFrame(ins), spark.createDataFrame(dele)
        )
        assert st2.epoch == st.epoch + 1

    def test_new_vertex_insertion(self, spark, base):
        st, pdf = base
        new_id = int(max(pdf["dst"].max(), pdf["src"].max())) + 100
        ins = spark.createDataFrame(
            pd.DataFrame({"src": [new_id, new_id], "dst": [0, 1]})
        )
        st2, _ = apply_batch(st, ins, None)
        ids = {int(r["id"]) for r in st2.adjacency.select("id").collect()}
        assert new_id in ids
        scratch = resolve_labels(st2.adjacency, st2.choices)
        pd.testing.assert_frame_equal(
            _sorted_labels(st2.labels), _sorted_labels(scratch)
        )


class TestApplyBatchPlan:
    """The Spark work of one batch: lookups of the rows its driver-side
    frames name, one scan per correction round, and the three state writes
    (DESIGN.md §7)."""

    def test_job_count(self, spark, base):
        # Counted like ``test_postprocess_spark::DETECT_JOBS``. A job that
        # comes back fails here.
        st, pdf = base
        (_, stats), jobs = _apply_counted(spark, st, *_fixed_batch(pdf))
        assert stats.rounds > 0
        assert jobs == APPLY_JOBS

    def test_no_scan_for_rows_at_t_max(self, spark):
        # With T = 1 every re-picked row is at t = T, which no row can pick
        # as its source: the round-0 wave is the last one, and no receiver
        # scan runs. The batch runs its fixed jobs only: the batch collect,
        # and two (broadcast, then collect or write) for each of the
        # endpoint lookup, the adjacency write, the old-choice lookup, the
        # choice write, the source-label lookup and the label write.
        pdf = web_graph(n=120, avg_degree=6, seed=2)
        st = run_static(spark.createDataFrame(pdf), 1, SEED)
        ins, dele = edit_batch(pdf, 20, seed=3)
        (st2, stats), jobs = _apply_counted(spark, st, ins, dele)
        _, rstats = ref_apply_batch(ref_run_static(pdf, 1, SEED), ins, dele)
        assert {k: getattr(stats, k) for k in rstats} == rstats
        assert stats.round_deltas == [stats.n_repicked] and stats.n_repicked > 0
        assert jobs == 13

    def test_large_ids_bit_identical(self, spark):
        # Ids near the top of int64, and a new vertex whose rows have no
        # old rows to keep: every id column stays int64 on the driver.
        shift = 2**62 + 1
        pdf = web_graph(n=120, avg_degree=6, seed=2) + shift
        ins, dele = edit_batch(pdf, 20, seed=3)
        new_id = int(pdf.to_numpy().max()) + 100
        ins = pd.concat([ins, _pairs([(new_id, shift), (shift + 1, new_id)])])
        st = run_static(spark.createDataFrame(pdf), T_ITERS, SEED)
        st2, stats = apply_batch(
            st, spark.createDataFrame(ins), spark.createDataFrame(dele)
        )
        rst2, rstats = ref_apply_batch(ref_run_static(pdf, T_ITERS, SEED), ins, dele)
        pd.testing.assert_frame_equal(
            _sorted_labels(st2.labels),
            labels_long(rst2.g, rst2.labels)
            .sort_values(["id", "t"])
            .reset_index(drop=True)
            .astype("int64"),
        )
        assert _nbrs(st2) == _ref_nbrs(rst2.g)
        assert {k: getattr(stats, k) for k in rstats} == rstats
        assert new_id in _nbrs(st2)


def _settled(spark):
    """The Python threads alive and the Spark jobs active, once the listener
    bus has delivered every event that the status tracker reads."""
    sc = spark.sparkContext
    assert sc._jsc.sc().listenerBus().waitUntilEmpty(10_000) is None
    return threading.active_count(), list(sc.statusTracker().getActiveJobsIds())


class TestApplyBatchConcurrency:
    """``apply_batch`` runs some steps on threads of its own; none outlives
    the call, and an error in any of them surfaces from it."""

    def test_nothing_outlives_the_call(self, spark, base):
        st, pdf = base
        before = _settled(spark)
        ins, dele = _fixed_batch(pdf)
        apply_batch(st, spark.createDataFrame(ins), spark.createDataFrame(dele))
        assert _settled(spark) == before

    def test_background_error_surfaces(self, spark, base, monkeypatch):
        st, pdf = base

        def broken(*args):
            raise RuntimeError("choice write failed")

        monkeypatch.setattr(incremental, "_swap_choices", broken)
        ins, dele = _fixed_batch(pdf)
        before = _settled(spark)
        with pytest.raises(RuntimeError, match="choice write failed"):
            apply_batch(st, spark.createDataFrame(ins), spark.createDataFrame(dele))
        assert _settled(spark) == before


def test_overlay_labels_follow_overlaid_sources():
    # (1, 1) reads the pre-update label of (9, 0); (2, 2) and (3, 3) read
    # overlaid sources, listed after them; (4, 2) reads (3, 1), which is
    # not overlaid.
    rows = pd.DataFrame(
        [(3, 3, 2, 2), (2, 2, 1, 1), (1, 1, 9, 0), (4, 2, 3, 1)],
        columns=["id", "t", "src", "pos"],
    )
    sources = pd.DataFrame([(9, 0, 9), (3, 1, 7)], columns=["src", "pos", "label"])
    assert overlay_labels(rows, sources).tolist() == [9, 9, 9, 7]
