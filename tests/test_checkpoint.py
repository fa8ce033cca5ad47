"""Tests for the materialization policy (repro.core.checkpoint): observed
counts cost no Spark job, ``release`` frees a local checkpoint through the
py4j path it relies on, the rSLPA entry points leave only the tables they
return in the block manager, and a chain that releases each superseded state
holds only the live one."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.checkpoint import materialize, release
from repro.core.incremental import apply_batch
from repro.core.rslpa import detect_communities, run_static
from repro.reference.incremental_ref import (
    apply_edits_pdf,
    ref_apply_batch,
    ref_run_static,
)
from repro.reference.rslpa_ref import labels_long
from repro.webgraph.generator import edit_batch, web_graph


def _stored(spark):
    """Ids of the RDDs that hold blocks in the block manager."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return {i.id() for i in infos}


def _rdd_id(df):
    return df._jdf.queryExecution().analyzed().rdd().id()


def _jobs(spark, group, fn):
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setJobGroup("", "")
    return len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.fixture(scope="module")
def edges(spark):
    return spark.createDataFrame(web_graph(n=120, avg_degree=4, seed=2))


def test_observed_counts_cost_no_job(spark):
    df = spark.range(1000).withColumn("x", F.col("id") % 7)
    seen = {}

    def observed():
        seen.update(materialize(df, 4, n=F.count("*"), big=F.count_if(F.col("x") > 3))[1])

    plain = _jobs(spark, "ckpt.plain", lambda: materialize(df, 4))
    assert _jobs(spark, "ckpt.observed", observed) == plain
    assert seen == {"n": 1000, "big": 1000 - 4 * 143}


def test_release_frees_a_local_checkpoint(spark):
    # Pins the py4j path ``release`` walks: a local checkpoint's analyzed
    # plan is a LogicalRDD whose RDD holds the blocks.
    cp, _ = materialize(spark.range(5000), 2)
    plan = cp._jdf.queryExecution().analyzed()
    assert plan.nodeName() == "LogicalRDD"
    rdd_id = plan.rdd().id()
    assert rdd_id in _stored(spark)
    cp.unpersist()  # frees nothing for a local checkpoint
    assert rdd_id in _stored(spark)
    release(cp.select("id"))  # a projection releases the checkpoint it reads
    assert rdd_id not in _stored(spark)


def test_run_static_stores_only_its_tables(spark, edges):
    before = _stored(spark)
    st = run_static(edges, 5, 3)
    tables = {_rdd_id(t) for t in (st.adjacency, st.choices, st.labels)}
    assert _stored(spark) - before == tables


def test_detect_communities_stores_only_its_communities(spark, edges):
    st = run_static(edges, 5, 3)
    state = {_rdd_id(t) for t in (st.adjacency, st.choices, st.labels)}
    before = _stored(spark)
    res = detect_communities(st)
    stored = _stored(spark)
    assert stored - before == {_rdd_id(res.communities)}
    assert state <= stored  # the input state is never released


def test_apply_batch_stores_only_its_tables(spark, edges):
    st = run_static(edges, 5, 3)
    old = {_rdd_id(t) for t in (st.adjacency, st.choices, st.labels)}
    ins, dele = edit_batch(edges.toPandas(), 20, seed=4)
    before = _stored(spark)
    st2, stats = apply_batch(
        st, spark.createDataFrame(ins), spark.createDataFrame(dele)
    )
    assert stats.rounds > 0
    new = {_rdd_id(t) for t in (st2.adjacency, st2.choices, st2.labels)}
    stored = _stored(spark)
    assert stored - before == new
    assert old <= stored  # the input state is never released


def _parts(spark, st):
    """The adjacency and choice tables' partition counts; reading them runs
    no Spark job."""
    out = []
    tables = (st.adjacency, st.choices)
    read = lambda: out.extend(t.rdd.getNumPartitions() for t in tables)
    assert _jobs(spark, "ckpt.parts", read) == 0
    return out


def test_chain_releasing_superseded_states(spark, edges):
    # Each superseded state is released right after the call that replaced
    # it, with no forced GC: storage then holds only the live state, so no
    # step of a batch reads its input after the call returns. A batch that
    # changes nothing returns its input, which must then stay. The state
    # tables keep the base state's partition counts, and reading them runs
    # no Spark job.
    pdf = edges.toPandas()
    st = run_static(edges, 5, 3)
    ref = ref_run_static(pdf, 5, 3)
    before = _stored(spark) - {_rdd_id(t) for t in (st.adjacency, st.choices, st.labels)}
    parts = _parts(spark, st)
    cur = ref.edges
    batches = []
    for seed in range(7):
        # Batch 3 inserts a present edge.
        batch = (cur.iloc[:1], None) if seed == 3 else edit_batch(cur, 16, seed=seed)
        batches.append(batch)
        cur = apply_edits_pdf(cur, *batch)
    kept = 0
    for ins, dele in batches:
        frames = [None if e is None else spark.createDataFrame(e) for e in (ins, dele)]
        new, _ = apply_batch(st, *frames)
        if new is st:
            kept += 1
        else:
            st.release()
        st = new
        ref, _ = ref_apply_batch(ref, ins, dele)
        live = {_rdd_id(t) for t in (st.adjacency, st.choices, st.labels)}
        assert _stored(spark) - before == live
        got = st.labels.toPandas().sort_values(["id", "t"]).reset_index(drop=True)
        want = labels_long(ref.g, ref.labels).sort_values(["id", "t"])
        pd.testing.assert_frame_equal(
            got.astype("int64"), want.reset_index(drop=True).astype("int64")
        )
        assert _parts(spark, st) == parts
    assert kept == 1
