"""Tests for Spark Correction Propagation (repro.core.incremental):
bit-equality against the reference incremental engine, and the
incremental-equals-scratch invariant on the Spark dataflow itself."""
import numpy as np
import pandas as pd
import pytest

from repro.core.incremental import apply_batch
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
        ("random batch", [edit_batch(pdf, 30, seed=9)]),
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
