"""Benchmark for the Fig. 8 table — static SLPA vs rSLPA on Spark.

Four benchmarks (label propagation and post-processing for each algorithm)
over the synthetic web graph, with the paper's 1:2 iteration ratio at a
reduced T. The shape under reproduction: rSLPA's label propagation is
several times cheaper per iteration (O(|V|) vs O(|E|) messages), SLPA's
post-processing is much cheaper (thresholding vs connected components).
"""
import pytest

from repro.core.graph import edge_list
from repro.core.postprocess import postprocess
from repro.core.rslpa import run_static
from repro.slpa.slpa import run_slpa, slpa_communities
from repro.webgraph.generator import web_graph

N = 4000
T_SLPA = 10
T_RSLPA = 2 * T_SLPA  # the paper's 100 vs 200 ratio


@pytest.fixture(scope="module")
def edges(spark):
    pdf = web_graph(n=N, avg_degree=20, seed=0)
    return spark.createDataFrame(pdf).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def slpa_mem(spark, edges):
    return run_slpa(edges, T_SLPA, seed=0).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def rslpa_state(spark, edges):
    return run_static(edges, T_RSLPA, seed=0)


def test_slpa_label_propagation(benchmark, edges):
    mem = benchmark.pedantic(
        lambda: run_slpa(edges, T_SLPA, seed=1).count(), rounds=1, iterations=1
    )
    benchmark.extra_info["iters"] = T_SLPA
    benchmark.extra_info["n"] = N


def test_rslpa_label_propagation(benchmark, edges):
    benchmark.pedantic(
        lambda: run_static(edges, T_RSLPA, seed=1).labels.count(),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["iters"] = T_RSLPA
    benchmark.extra_info["n"] = N


def test_slpa_post_processing(benchmark, slpa_mem):
    comms = benchmark.pedantic(
        lambda: slpa_communities(slpa_mem, tau=0.2, n_iters=T_SLPA),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["n_communities"] = len(comms)


def test_rslpa_post_processing(benchmark, rslpa_state):
    res = benchmark.pedantic(
        lambda: postprocess(
            edge_list(rslpa_state.adjacency),
            rslpa_state.labels,
            T_RSLPA,
            n_candidates=6,
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["tau1"] = round(res.tau1, 4)
    benchmark.extra_info["tau2"] = round(res.tau2, 4)
