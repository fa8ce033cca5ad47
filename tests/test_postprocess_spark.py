"""Tests for the Spark post-processing (repro.core.postprocess): DuckDB
oracle on the weight join-aggregate, threshold semantics, and exact
equality of the full pipeline against the reference engine."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import edge_list
from repro.core.postprocess import (
    candidate_taus,
    edge_weights,
    extract_communities,
    layered_components,
    tau2_and_n_vertices,
)
from repro.core.rslpa import detect_communities, run_static
from repro.oracle import assert_equivalent
from repro.reference.postprocess_ref import _strong_cover, postprocess_ref
from repro.reference.rslpa_ref import propagate
from repro.webgraph.generator import web_graph

T_ITERS = 8
SEED = 5


@pytest.fixture(scope="module")
def state(spark):
    pdf = web_graph(n=250, avg_degree=6, seed=1)
    st = run_static(spark.createDataFrame(pdf), T_ITERS, SEED)
    return st, pdf


class TestEdgeWeights:
    def test_oracle(self, spark, state):
        st, _ = state
        edges = edge_list(st.adjacency)
        w = edge_weights(edges, st.labels, T_ITERS).select("src", "dst", "w_int")
        assert_equivalent(
            w,
            """
            WITH counts AS (
                SELECT id, label, COUNT(*) AS cnt FROM labels GROUP BY id, label
            )
            SELECT e.src, e.dst,
                   COALESCE(SUM(cs.cnt * cd.cnt), 0) AS w_int
            FROM e
            LEFT JOIN counts cs ON cs.id = e.src
            LEFT JOIN counts cd ON cd.id = e.dst AND cd.label = cs.label
            GROUP BY e.src, e.dst
            """,
            e=edges,
            labels=st.labels,
        )

    def test_weight_normalization(self, state):
        st, _ = state
        w = edge_weights(edge_list(st.adjacency), st.labels, T_ITERS).toPandas()
        assert ((0 <= w["w"]) & (w["w"] <= 1)).all()
        assert (w["w"] * (T_ITERS + 1) ** 2 - w["w_int"]).abs().max() < 1e-9

    def test_self_similarity_is_max(self, spark):
        # Identical twin vertices (same neighborhood) get near-max weight.
        pdf = pd.DataFrame({"src": [1, 1, 2, 2], "dst": [2, 3, 3, 4]})
        st = run_static(spark.createDataFrame(pdf), 2, 0)
        w = edge_weights(edge_list(st.adjacency), st.labels, 2).toPandas()
        assert (w["w_int"] <= 9).all()

    def test_tau2(self, spark):
        w = spark.createDataFrame(
            pd.DataFrame(
                {"src": [0, 1, 2], "dst": [1, 2, 3], "w_int": [10, 5, 8]}
            )
        )
        # max incident: v0=10, v1=10, v2=8, v3=8 -> τ2 = 8 over 4 vertices.
        assert tau2_and_n_vertices(w) == (8, 4)


class TestLayeredComponents:
    def test_each_candidate_matches_reference(self, state):
        st, _ = state
        weights = edge_weights(
            edge_list(st.adjacency), st.labels, T_ITERS
        ).localCheckpoint(eager=True)
        pw = weights.select("src", "dst", "w_int").toPandas()
        tau2, _ = tau2_and_n_vertices(weights)
        cands = candidate_taus(pw["w_int"].unique(), tau2, 6)
        out = layered_components(weights, cands).toPandas()
        per_tau = {
            tau: {comp: set(g["id"]) for comp, g in layer.groupby("comp")}
            for tau, layer in out.groupby("tau")
        }
        expected = {tau: _strong_cover(pw, tau) for tau in cands}
        # The layers must differ, or a merged key would go unnoticed.
        layers = {
            frozenset(map(frozenset, c.values())) for c in expected.values()
        }
        assert len(layers) > 1
        assert {tau: per_tau.get(tau, {}) for tau in cands} == expected


class TestExtractCommunities:
    @pytest.fixture(scope="class")
    def weights(self, spark):
        return spark.createDataFrame(
            pd.DataFrame(
                {
                    "src": [0, 2, 1, 3],
                    "dst": [1, 3, 4, 4],
                    "w_int": [10, 10, 4, 4],
                }
            )
        )

    @pytest.fixture(scope="class")
    def strong(self, spark):
        # The components of the τ1 = 10 graph.
        return spark.createDataFrame(
            pd.DataFrame({"comp": [0, 0, 2, 2], "id": [0, 1, 2, 3]})
        )

    def test_overlap_via_weak_vertex(self, weights, strong):
        out = extract_communities(weights, strong, tau2_int=4).toPandas()
        cover = {
            comp: set(grp["id"]) for comp, grp in out.groupby("comp")
        }
        assert cover[0] == {0, 1, 4}
        assert cover[2] == {2, 3, 4}

    def test_high_tau2_blocks_weak(self, weights, strong):
        out = extract_communities(weights, strong, tau2_int=5).toPandas()
        cover = {comp: set(g["id"]) for comp, g in out.groupby("comp")}
        assert cover == {0: {0, 1}, 2: {2, 3}}


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
