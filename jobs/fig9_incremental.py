"""Fig. 9 (as a table) — incremental updating vs running from scratch.

The paper applies edit batches of size 100..100,000 (half inserts, half
deletes) to the web graph after 200 iterations of rSLPA, and reports that
(a) incremental updating is much faster than re-running from scratch and
(b) its runtime grows *sublinearly* in the batch size (overlapping influence
of nearby edits). This job reproduces the table at a reduced scale and adds
the Section IV-D model columns: measured η vs predicted η̂ and the Eq. 10/12
bounds.

Wall-clock times are measured on the Spark engine; η is measured with the
reference incremental engine (bit-identical, asserted in tests) so the model
columns don't pay Spark constant factors.

Run: ``spark-submit jobs/fig9_incremental.py [n] [T] [seed]``
"""
from __future__ import annotations

import sys
import time
from typing import Dict, List

from pyspark.sql import SparkSession

from repro.core import complexity as cx
from repro.core.incremental import apply_batch
from repro.core.rslpa import run_static
from repro.reference.incremental_ref import ref_apply_batch, ref_run_static
from repro.webgraph.generator import edit_batch, web_graph

PAPER_SHAPE = (
    "paper (eu-2015-tpd): incremental much faster than scratch at all batch "
    "sizes 100..100K; incremental time sublinear in batch size"
)


def run(
    spark: SparkSession,
    n: int,
    n_iters: int,
    seed: int,
    batch_sizes: List[int],
) -> List[Dict[str, float]]:
    """One row per batch size: wall-clock and η columns."""
    pdf = web_graph(n=n, avg_degree=20, seed=seed)
    edges = spark.createDataFrame(pdf).localCheckpoint(eager=True)

    t0 = time.time()
    st = run_static(edges, n_iters, seed)
    scratch_s = time.time() - t0  # from-scratch label propagation cost

    ref_st = ref_run_static(pdf, n_iters, seed)
    n_edges = len(ref_st.edges)
    rows = []
    for b in batch_sizes:
        ins, dele = edit_batch(pdf, b, seed=seed + b)
        ins_df = spark.createDataFrame(ins).localCheckpoint(eager=True)
        dele_df = spark.createDataFrame(dele).localCheckpoint(eager=True)
        t0 = time.time()
        _, stats = apply_batch(st, ins_df, dele_df)
        inc_s = time.time() - t0
        _, ref_stats = ref_apply_batch(ref_st, ins, dele)
        pc = cx.p_c(len(dele), len(ins), n_edges)
        rows.append(
            {
                "batch": b,
                "incremental_s": inc_s,
                "scratch_s": scratch_s,
                "speedup": scratch_s / inc_s if inc_s > 0 else float("inf"),
                "eta_measured": ref_stats["eta"],
                "eta_expected": cx.eta_expected(n_iters, ref_st.g.n, pc),
                "eta_lower": cx.eta_lower(n_iters, ref_st.g.n, pc),
                "eta_upper": cx.eta_upper(n_iters, ref_st.g.n, pc),
                "rounds": stats.rounds,
            }
        )
    return rows


def print_table(rows: List[Dict[str, float]]) -> None:
    print("Fig. 9 (as table) — incremental vs scratch by batch size")
    print(PAPER_SHAPE)
    hdr = (
        f"{'batch':>8}{'incr (s)':>10}{'scratch (s)':>12}{'speedup':>9}"
        f"{'η meas':>10}{'η̂ (Eq.8)':>11}{'η low':>9}{'η up':>10}{'rounds':>7}"
    )
    print(hdr)
    for r in rows:
        print(
            f"{r['batch']:>8}{r['incremental_s']:>10.1f}"
            f"{r['scratch_s']:>12.1f}{r['speedup']:>9.2f}"
            f"{r['eta_measured']:>10}{r['eta_expected']:>11.0f}"
            f"{r['eta_lower']:>9.0f}{r['eta_upper']:>10.0f}{r['rounds']:>7}"
        )


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 30_000
    n_iters = int(argv[2]) if len(argv) > 2 else 200
    seed = int(argv[3]) if len(argv) > 3 else 0
    from repro.spark_session import local_session

    spark = local_session("fig9")
    print_table(run(spark, n, n_iters, seed, [30, 300, 3000]))


if __name__ == "__main__":
    main(sys.argv)
