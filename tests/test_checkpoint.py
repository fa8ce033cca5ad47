"""Tests for the materialization policy (repro.core.checkpoint): observed
counts cost no Spark job, ``release`` frees a local checkpoint through the
py4j path it relies on, and the rSLPA entry points leave only the tables
they return in the block manager."""
import pytest
from pyspark.sql import functions as F

from repro.core.checkpoint import materialize, release
from repro.core.incremental import apply_batch
from repro.core.rslpa import detect_communities, run_static
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
