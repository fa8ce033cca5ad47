"""Benchmark for the Fig. 9 table — incremental update vs from scratch.

One benchmark per batch size plus the from-scratch baseline, on the Spark
engine. The shape under reproduction: incremental beats scratch, and the
incremental cost grows sublinearly with the batch size. Measured η and the
Section IV-D predictions are attached as extra_info.
"""
import pytest

from repro.core import complexity as cx
from repro.core.incremental import apply_batch
from repro.core.rslpa import run_static
from repro.reference.incremental_ref import ref_apply_batch, ref_run_static
from repro.webgraph.generator import edit_batch, web_graph

N = 30_000
T_ITERS = 200
BATCHES = [30, 300, 3000]


@pytest.fixture(scope="module")
def base(spark):
    pdf = web_graph(n=N, avg_degree=20, seed=0)
    edges = spark.createDataFrame(pdf).localCheckpoint(eager=True)
    st = run_static(edges, T_ITERS, seed=0)
    ref_st = ref_run_static(pdf, T_ITERS, seed=0)
    return pdf, edges, st, ref_st


def test_from_scratch_baseline(benchmark, spark, base):
    _, edges, _, _ = base
    benchmark.pedantic(
        lambda: run_static(edges, T_ITERS, seed=2).labels.count(),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["iters"] = T_ITERS
    benchmark.extra_info["n"] = N


@pytest.mark.parametrize("batch", BATCHES)
def test_incremental_update(benchmark, spark, base, batch):
    pdf, _, st, ref_st = base
    ins, dele = edit_batch(pdf, batch, seed=batch)
    ins_df = spark.createDataFrame(ins).localCheckpoint(eager=True)
    dele_df = spark.createDataFrame(dele).localCheckpoint(eager=True)

    def update():
        _, stats = apply_batch(st, ins_df, dele_df)
        return stats

    stats = benchmark.pedantic(update, rounds=1, iterations=1)
    _, ref_stats = ref_apply_batch(ref_st, ins, dele)
    pc = cx.p_c(len(dele), len(ins), len(ref_st.edges))
    benchmark.extra_info["batch"] = batch
    benchmark.extra_info["eta_measured"] = ref_stats["eta"]
    benchmark.extra_info["eta_expected"] = round(
        cx.eta_expected(T_ITERS, ref_st.g.n, pc)
    )
    benchmark.extra_info["eta_bounds"] = [
        round(cx.eta_lower(T_ITERS, ref_st.g.n, pc)),
        round(cx.eta_upper(T_ITERS, ref_st.g.n, pc)),
    ]
    benchmark.extra_info["rounds"] = stats.rounds
