"""Tests for the Spark post-processing (repro.core.postprocess): DuckDB
oracle on the one-row-per-edge weight table, the values observed on its
write and read off the partitions' forests, the per-partition forest filter
against the forest kernel, threshold semantics, exact equality of the full
pipeline against the reference engine, and the Spark job count of one
detection."""
import pandas as pd
import pytest

from repro.cc.reference import components_of_edges, sweep_components
from repro.core import postprocess as P
from repro.core.postprocess import (
    connected_components,
    edge_weights,
    extract_communities,
    select_tau1,
    thresholds,
    write_weights,
)
from repro.core.rslpa import detect_communities, run_static
from repro.oracle import assert_equivalent
from repro.reference.postprocess_ref import edge_weights_ref, postprocess_ref
from repro.reference.rslpa_ref import canon_pdf, propagate
from repro.webgraph.generator import web_graph

T_ITERS = 8
SEED = 5
DETECT_JOBS = 9  # Spark jobs of one detect_communities on ``state``
GRAPHS = [
    pd.DataFrame({"src": range(80), "dst": range(1, 81)}),
    web_graph(n=400, avg_degree=3, seed=3),
]


@pytest.fixture(scope="module")
def state(spark):
    pdf = web_graph(n=250, avg_degree=6, seed=1)
    st = run_static(spark.createDataFrame(pdf), T_ITERS, SEED)
    return st, pdf


class TestEdgeWeights:
    def test_oracle(self, spark, state):
        st, pdf = state
        w = edge_weights(st.adjacency, st.labels)
        assert_equivalent(
            w,
            """
            WITH counts AS (
                SELECT id, label, COUNT(*) AS cnt FROM labels GROUP BY id, label
            ), canon AS (
                SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
                FROM e WHERE src <> dst
            )
            SELECT s.a, s.b,
                   COALESCE(SUM(ca.cnt * cb.cnt), 0) AS w_int
            FROM canon s
            LEFT JOIN counts ca ON ca.id = s.a
            LEFT JOIN counts cb ON cb.id = s.b AND cb.label = ca.label
            GROUP BY s.a, s.b
            """,
            e=pdf,
            labels=st.labels,
        )

    def test_weight_normalization(self, state):
        st, _ = state
        w = edge_weights(st.adjacency, st.labels).toPandas()
        assert ((0 <= w["w_int"]) & (w["w_int"] <= (T_ITERS + 1) ** 2)).all()
        res = detect_communities(st, n_candidates=6)
        for tau, tau_int in ((res.tau1, res.tau1_int), (res.tau2, res.tau2_int)):
            assert 0.0 <= tau <= 1.0
            assert abs(tau * (T_ITERS + 1) ** 2 - tau_int) < 1e-9

    def test_self_similarity_is_max(self, spark):
        # Identical twin vertices (same neighborhood) get near-max weight.
        pdf = pd.DataFrame({"src": [1, 1, 2, 2], "dst": [2, 3, 3, 4]})
        st = run_static(spark.createDataFrame(pdf), 2, 0)
        w = edge_weights(st.adjacency, st.labels).toPandas()
        assert (w["w_int"] <= 9).all()

    def test_tau2(self, spark):
        # The path 0-1-2-3, one row per edge, spread over three partitions.
        w = spark.createDataFrame(
            pd.DataFrame({"a": [0, 1, 2], "b": [1, 2, 3], "w_int": [10, 5, 8]})
        )
        table, distinct_w = write_weights(w.repartition(3))
        th = thresholds(*connected_components(table), distinct_w, 8)
        # max incident: v0=10, v1=10, v2=8, v3=8 -> τ2 = 8 over 4 vertices.
        assert (th.tau2_int, th.n_vertices, sorted(distinct_w)) == (8, 4, [5, 8, 10])

    def test_observed_values_match_reference(self, spark, state):
        # Without AQE's partition coalescing the write keeps several
        # partitions, so the distinct weights merge per-partition parts and
        # τ2 and |V| come from several partitions' forests.
        st, pdf = state
        key = "spark.sql.adaptive.coalescePartitions.enabled"
        saved = spark.conf.get(key)
        spark.conf.set(key, "false")
        try:
            table, distinct_w = write_weights(
                edge_weights(st.adjacency, st.labels.repartition(8))
            )
        finally:
            spark.conf.set(key, saved)
        assert table.rdd.getNumPartitions() > 1
        g, _, _, labels = propagate(pdf, T_ITERS, SEED)
        ref = edge_weights_ref(pdf, g, labels)
        th = thresholds(*connected_components(table), distinct_w, 6)
        ref_th = thresholds(ref["src"], ref["dst"], ref["w_int"], distinct_w, 6)
        assert th.tau2_int == ref_th.tau2_int
        assert th.n_vertices == ref_th.n_vertices == g.n
        assert sorted(distinct_w) == sorted(ref["w_int"].unique())
        assert table.count() == len(ref)


def _threshold_components(pw, taus):
    """Oracle: union-find over every ``w_int >= τ`` edge of ``(src, dst,
    w_int)`` rows, for each τ."""
    return {
        tau: components_of_edges(
            pw.loc[pw["w_int"] >= tau, ["src", "dst"]].itertuples(index=False)
        )
        for tau in taus
    }


def _table(spark, pw):
    """The ``(a, b, w_int)`` weight table of ``(src, dst, w_int)`` rows."""
    return spark.createDataFrame(pw.rename(columns={"src": "a", "dst": "b"}))


def _swept(weights, taus):
    """The kernel's sweep over the forests the partitions keep."""
    return sweep_components(*connected_components(weights), taus)


class TestConnectedComponents:
    """The forest each partition keeps, merged and swept on the driver,
    gives the components of every threshold graph."""

    def _tied(self, pdf):
        # Weights 0..4 tie often, so partitions keep different forests.
        e = canon_pdf(pdf)
        return e.assign(w_int=(e["src"] * 7 + e["dst"] * 3) % 5)

    @pytest.mark.parametrize("pdf", GRAPHS, ids=["path80", "web400"])
    def test_eight_partitions_match_kernel(self, spark, pdf):
        pw = self._tied(pdf)
        taus = [0, 1, 2, 3, 4]
        w = _table(spark, pw).repartition(8)
        assert w.rdd.getNumPartitions() == 8
        out = _swept(w, taus)
        assert out == sweep_components(pw["src"], pw["dst"], pw["w_int"], taus)
        assert out == _threshold_components(pw, taus)

    @pytest.mark.parametrize("pdf", GRAPHS, ids=["path80", "web400"])
    def test_one_partition_matches_kernel(self, spark, pdf):
        pw = self._tied(pdf)
        taus = [0, 2, 4]
        out = _swept(_table(spark, pw).coalesce(1), taus)
        assert out == _threshold_components(pw, taus)

    def test_empty_partitions(self, spark):
        # Four rows in eight partitions: at least four partitions are empty.
        pw = pd.DataFrame(
            {"src": [1, 2, 5, 6], "dst": [2, 3, 6, 7], "w_int": [3, 1, 3, 3]}
        )
        out = _swept(_table(spark, pw).repartition(8), [1, 3])
        assert out == sweep_components(pw["src"], pw["dst"], pw["w_int"], [1, 3])
        assert out == {
            1: {1: [1, 2, 3], 5: [5, 6, 7]},
            3: {1: [1, 2], 5: [5, 6, 7]},
        }

    def test_two_components(self, spark):
        pw = pd.DataFrame({"src": [1, 2, 5], "dst": [2, 3, 6], "w_int": [1, 1, 1]})
        out = _swept(_table(spark, pw), [1])
        assert out == {1: {1: [1, 2, 3], 5: [5, 6]}}

    def test_comp_is_min_id(self, spark):
        pw = pd.DataFrame({"src": [10, 7], "dst": [7, 3], "w_int": [2, 2]})
        out = _swept(_table(spark, pw), [2])
        assert out == {2: {3: [3, 7, 10]}}

    def test_thresholds_stay_separate(self, spark):
        # 1-2 and 3-4 weigh 5, 2-3 weighs 1: only τ = 1 joins all four ids,
        # and a vertex with no edge at τ is in no component.
        pw = pd.DataFrame({"src": [1, 3, 2], "dst": [2, 4, 3], "w_int": [5, 5, 1]})
        out = _swept(_table(spark, pw), [1, 5, 6])
        assert out == {1: {1: [1, 2, 3, 4]}, 5: {1: [1, 2], 3: [3, 4]}, 6: {}}


class TestCandidateComponents:
    def test_each_candidate_matches_reference(self, state):
        st, _ = state
        weights, distinct_w = write_weights(edge_weights(st.adjacency, st.labels))
        pw = weights.toPandas().rename(columns={"a": "src", "b": "dst"})
        th = thresholds(*connected_components(weights), distinct_w, 6)
        expected = _threshold_components(pw, th.candidates)
        # The candidates' components must differ, or a threshold the sweep
        # skipped would go unnoticed.
        layers = {
            frozenset(map(tuple, c.values())) for c in expected.values()
        }
        assert len(layers) > 1
        assert th.comps == expected


class TestExtractCommunities:
    @pytest.fixture(scope="class")
    def weights(self, spark):
        # Edges 0-1 and 5-6 at 10, 1-4 and 4-5 at 4, one row each: the
        # weak vertex 4 is the ``b`` end of one edge and the ``a`` end of
        # the other.
        return spark.createDataFrame(
            pd.DataFrame(
                {"a": [0, 5, 1, 4], "b": [1, 6, 4, 5], "w_int": [10, 10, 4, 4]}
            )
        )

    @pytest.fixture(scope="class")
    def strong(self, spark):
        # The components of the τ1 = 10 graph.
        return spark.createDataFrame(
            pd.DataFrame({"comp": [0, 0, 5, 5], "id": [0, 1, 5, 6]})
        )

    def test_overlap_via_weak_vertex(self, weights, strong):
        out = extract_communities(weights, strong, tau2_int=4).toPandas()
        cover = {
            comp: set(grp["id"]) for comp, grp in out.groupby("comp")
        }
        assert cover[0] == {0, 1, 4}
        assert cover[5] == {4, 5, 6}

    def test_high_tau2_blocks_weak(self, weights, strong):
        out = extract_communities(weights, strong, tau2_int=5).toPandas()
        cover = {comp: set(g["id"]) for comp, g in out.groupby("comp")}
        assert cover == {0: {0, 1}, 5: {5, 6}}


class TestFullPipelineEquality:
    def test_matches_reference_engine(self, state):
        st, pdf = state
        res = detect_communities(st, n_candidates=6)
        g, _, _, labels = propagate(pdf, T_ITERS, SEED)
        ref_cover, ref_t1, ref_t2 = postprocess_ref(
            pdf, g, labels, n_candidates=6
        )
        assert (res.tau1_int, res.tau2_int) == (ref_t1, ref_t2)
        assert {frozenset(c) for c in res.cover()} == {
            frozenset(c) for c in ref_cover
        }

    def test_entropies_match_reference(self, state):
        # The (τ, entropy) pairs that chose τ1 over the partitions' forests
        # are those of every reference edge, and choose the returned τ1.
        st, pdf = state
        res = detect_communities(st, n_candidates=6)
        g, _, _, labels = propagate(pdf, T_ITERS, SEED)
        ref = edge_weights_ref(pdf, g, labels)
        th = thresholds(ref["src"], ref["dst"], ref["w_int"], ref["w_int"].unique(), 6)
        assert res.entropies == th.entropies
        assert select_tau1(res.entropies) == res.tau1_int

    def test_thresholds_ordered(self, state):
        st, _ = state
        res = detect_communities(st, n_candidates=6)
        assert res.tau1_int >= res.tau2_int
        assert 0.0 <= res.tau2 <= res.tau1 <= 1.0

    def test_two_cliques_communities(self, spark):
        cl1 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        cl2 = [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        pdf = pd.DataFrame(cl1 + cl2 + [(5, 6)], columns=["src", "dst"])
        st = run_static(spark.createDataFrame(pdf), 40, seed=2)
        cover = detect_communities(st, n_candidates=6).cover()
        assert any(len(c & set(range(6))) >= 5 for c in cover)
        assert any(len(c & set(range(6, 12))) >= 5 for c in cover)


def test_detect_communities_job_count(spark, state):
    # One job group around one detection, counted like
    # test_checkpoint::test_observed_counts_cost_no_job. The count was
    # measured when the weight write kept one row per edge and counted the
    # label matches of one ``collect_list`` per vertex in one ``mapInPandas``,
    # the τ1 sweep, τ2 and |V| came from one collect of per-partition forests
    # and the extraction broadcast the τ1 members; a job that comes back
    # fails here.
    st, _ = state
    sc = spark.sparkContext
    sc.setJobGroup("detect", "detect")
    try:
        detect_communities(st, n_candidates=6)
    finally:
        sc.setJobGroup("", "")
    assert len(sc.statusTracker().getJobIdsForGroup("detect")) == DETECT_JOBS


def test_weight_write_explodes_adjacency_once(state, monkeypatch):
    # Every edge comes once from one explode of the adjacency checkpoint,
    # and the write needs no window: τ2 and |V| come from the forests. One
    # ``mapInPandas`` counts the label matches; no SQL lambda does.
    st, _ = state
    written = []
    write = P.write_weights

    def recorded(weights):
        written.append(weights)
        return write(weights)

    monkeypatch.setattr(P, "write_weights", recorded)
    detect_communities(st, n_candidates=6)
    plan = written[0]._jdf.queryExecution().executedPlan().toString()
    assert plan.count("Generate explode") == 1
    assert "Window" not in plan
    assert "lambdafunction" not in plan
    assert plan.count("MapInPandas") == 1
