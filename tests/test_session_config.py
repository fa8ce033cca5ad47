"""Bit-identity under a second session config: adaptive query execution
off and 7 shuffle partitions. The draws are partition-independent by
design, so labels, chained updates (their observed counts included), the
detected communities and the SLPA memory must equal the references under
any partitioning. Here the weight table keeps several partitions, so the
τ1 sweep must merge the forests that each of them keeps."""
import pandas as pd
import pytest

from repro.core import postprocess as P
from repro.core.incremental import apply_batch
from repro.core.rslpa import detect_communities, run_static
from repro.core.postprocess import thresholds
from repro.reference.postprocess_ref import edge_weights_ref, postprocess_ref
from repro.reference.incremental_ref import (
    apply_edits_pdf,
    ref_apply_batch,
    ref_run_static,
)
from repro.reference.rslpa_ref import labels_long
from repro.slpa.reference import run_slpa_ref
from repro.slpa.slpa import run_slpa
from repro.webgraph.generator import edit_batch, web_graph

T_ITERS = 6
SEED = 5
CONF = {"spark.sql.adaptive.enabled": "false", "spark.sql.shuffle.partitions": "7"}


def _sorted(pdf):
    return pdf.sort_values(["id", "t"]).reset_index(drop=True).astype("int64")


@pytest.fixture(scope="module")
def second_config(spark):
    saved = {k: spark.conf.get(k) for k in CONF}
    for k, v in CONF.items():
        spark.conf.set(k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            spark.conf.set(k, v)


@pytest.fixture(scope="module")
def graph():
    return web_graph(n=200, avg_degree=6, seed=3)


def test_static_labels(spark, second_config, graph):
    st = run_static(spark.createDataFrame(graph), T_ITERS, SEED)
    ref = ref_run_static(graph, T_ITERS, SEED)
    pd.testing.assert_frame_equal(
        _sorted(st.labels.toPandas()), _sorted(labels_long(ref.g, ref.labels))
    )


def test_detect_communities(spark, second_config, graph, checkpoints, monkeypatch):
    st = run_static(spark.createDataFrame(graph), T_ITERS, SEED)
    parts = []
    sweep = P.connected_components

    def recorded(weights):
        parts.append(weights.rdd.getNumPartitions())
        return sweep(weights)

    monkeypatch.setattr(P, "connected_components", recorded)
    checkpoints.clear()
    res = detect_communities(st, n_candidates=4)
    ref = ref_run_static(graph, T_ITERS, SEED)
    cover, tau1, tau2 = postprocess_ref(graph, ref.g, ref.labels, n_candidates=4)
    assert (res.tau1_int, res.tau2_int) == (tau1, tau2)
    assert {frozenset(c) for c in res.cover()} == {frozenset(c) for c in cover}
    w = edge_weights_ref(graph, ref.g, ref.labels)
    th = thresholds(w["src"], w["dst"], w["w_int"], w["w_int"].unique(), 4)
    assert res.entropies == th.entropies
    assert parts[0] > 1  # the forests of several partitions are merged
    assert len(checkpoints) == 2  # the weights and the communities


def test_chained_apply_batch(spark, second_config, graph):
    st = run_static(spark.createDataFrame(graph), T_ITERS, SEED)
    ref = ref_run_static(graph, T_ITERS, SEED)
    cur = graph
    for seed in (21, 22, 23):
        ins, dele = edit_batch(cur, 20, seed=seed)
        cur = apply_edits_pdf(cur, ins, dele)
        st, stats = apply_batch(
            st, spark.createDataFrame(ins), spark.createDataFrame(dele)
        )
        ref, ref_stats = ref_apply_batch(ref, ins, dele)
        pd.testing.assert_frame_equal(
            _sorted(st.labels.toPandas()), _sorted(labels_long(ref.g, ref.labels))
        )
        assert {k: getattr(stats, k) for k in ref_stats} == ref_stats


def test_slpa_memory(spark, second_config, graph):
    mem = run_slpa(spark.createDataFrame(graph), T_ITERS, SEED)
    g, ref = run_slpa_ref(graph, T_ITERS, SEED)
    pd.testing.assert_frame_equal(
        _sorted(mem.toPandas()), _sorted(labels_long(g, ref))
    )
