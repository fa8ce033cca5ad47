"""Fig. 8 (as a table) — static runtime of SLPA vs rSLPA on Spark.

The paper runs both algorithms on the eu-2015-tpd web graph on a 7-node
Spark cluster and reports wall time split into label propagation and
post-processing, with SLPA at T=100 and rSLPA at T=200. Reported shape:

* label propagation: rSLPA > 2x faster than SLPA despite 2x iterations
  (>5x faster per iteration) — Algorithm 1 ships O(|V|) labels/iteration
  vs SLPA's O(|E|);
* post-processing: SLPA much faster (thresholding vs connected components);
* total: rSLPA slightly faster.

Here the substrate is local[*] Spark over the synthetic web graph, with the
paper's 1:2 iteration ratio at a reduced T (DESIGN.md Section 4).

Run: ``spark-submit jobs/fig8_static_runtime.py [n] [T_slpa] [seed]``
"""
from __future__ import annotations

import sys
import time
from typing import Dict

from pyspark.sql import SparkSession

from repro.core.rslpa import detect_communities, run_static
from repro.slpa.slpa import run_slpa, slpa_communities
from repro.webgraph.generator import web_graph

PAPER_SHAPE = (
    "paper (eu-2015-tpd, 7-node cluster): rSLPA label-prop more than 2x "
    "faster than SLPA (at 2x iterations); SLPA post-proc much faster; "
    "rSLPA slightly faster in total"
)


def run(spark: SparkSession, n: int, t_slpa: int, seed: int) -> Dict[str, float]:
    """Measure both algorithms; returns per-stage wall-clock seconds."""
    pdf = web_graph(n=n, avg_degree=20, seed=seed)
    edges = spark.createDataFrame(pdf).localCheckpoint(eager=True)
    t_rslpa = 2 * t_slpa  # the paper's iteration ratio (100 vs 200)

    t0 = time.time()
    mem = run_slpa(edges, t_slpa, seed)  # returns an eager checkpoint
    slpa_lp = time.time() - t0
    t0 = time.time()
    slpa_comms = slpa_communities(mem, tau=0.2, n_iters=t_slpa)
    slpa_pp = time.time() - t0

    t0 = time.time()
    st = run_static(edges, t_rslpa, seed)
    rslpa_lp = time.time() - t0
    t0 = time.time()
    res = detect_communities(st, n_candidates=6)
    res.communities.count()
    rslpa_pp = time.time() - t0

    return {
        "slpa_label_prop_s": slpa_lp,
        "slpa_post_proc_s": slpa_pp,
        "slpa_total_s": slpa_lp + slpa_pp,
        "rslpa_label_prop_s": rslpa_lp,
        "rslpa_post_proc_s": rslpa_pp,
        "rslpa_total_s": rslpa_lp + rslpa_pp,
        "slpa_iters": t_slpa,
        "rslpa_iters": t_rslpa,
        "slpa_per_iter_s": slpa_lp / t_slpa,
        "rslpa_per_iter_s": rslpa_lp / t_rslpa,
        "n_slpa_comms": len(slpa_comms),
        "n_rslpa_comms": res.communities.select("comp").distinct().count(),
    }


def print_table(r: Dict[str, float]) -> None:
    print("Fig. 8 (as table) — static runtime, SLPA vs rSLPA")
    print(PAPER_SHAPE)
    print(f"{'stage':<18}{'SLPA (s)':>12}{'rSLPA (s)':>12}")
    print(f"{'label prop':<18}{r['slpa_label_prop_s']:>12.1f}{r['rslpa_label_prop_s']:>12.1f}")
    print(f"{'post-processing':<18}{r['slpa_post_proc_s']:>12.1f}{r['rslpa_post_proc_s']:>12.1f}")
    print(f"{'total':<18}{r['slpa_total_s']:>12.1f}{r['rslpa_total_s']:>12.1f}")
    print(f"{'communities':<18}{r['n_slpa_comms']:>12d}{r['n_rslpa_comms']:>12d}")
    print(
        f"per-iteration: SLPA {r['slpa_per_iter_s']:.2f}s/iter "
        f"(T={r['slpa_iters']}), rSLPA {r['rslpa_per_iter_s']:.2f}s/iter "
        f"(T={r['rslpa_iters']}) — ratio "
        f"{r['slpa_per_iter_s'] / r['rslpa_per_iter_s']:.1f}x"
    )


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 4000
    t_slpa = int(argv[2]) if len(argv) > 2 else 30
    seed = int(argv[3]) if len(argv) > 3 else 0
    from repro.spark_session import local_session

    spark = local_session("fig8")
    print_table(run(spark, n, t_slpa, seed))


if __name__ == "__main__":
    main(sys.argv)
