"""The three workloads. Each is a closed loop with one client: the next call
starts only after the previous one returned.

A workload runs in *cycles*. A cycle is the unit the loop repeats and the
unit one correctness check covers; ``op_s`` is the latency of one timed
operation inside it:

* ``static`` — one operation per cycle: ``rslpa.run_static`` then
  ``rslpa.detect_communities`` on the edge DataFrame, ending with the
  communities materialized.
* ``stream`` — ``depth`` chained ``incremental.apply_batch`` calls at their
  default arguments; each call is one operation.
* ``stream-query`` — ``depth`` chained batches then one
  ``detect_communities`` on the updated state; the whole cycle is one
  operation (edits in, fresh communities out).

Every cycle starts again from the base state, so each cycle meets the same
depths of un-materialized overlays (``apply_batch`` leaves its labels lazy;
chaining without end would make every later call slower than the last and
tie the per-call time to the run length). Inside a cycle each batch is drawn
from the current edge set. The NumPy reference engines replay every cycle
outside the timed region; a mismatch fails every operation the check covers.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np
from pyspark.sql import SparkSession

from repro.core import incremental, rslpa
from repro.reference.incremental_ref import ref_apply_batch, ref_run_static
from repro.reference.postprocess_ref import postprocess_ref
from repro.reference.rslpa_ref import labels_long
from repro.webgraph.generator import edit_batch, web_graph

import measures


@dataclass(frozen=True)
class Params:
    n: int  # vertices of the Chung-Lu web graph
    avg_degree: float
    iters: int  # T
    candidates: int  # n_candidates of detect_communities (tau1 grid size)
    batch: int = 0  # edits per batch, half inserts and half deletes
    depth: int = 0  # batches per cycle = overlay depth reached


# Sizes are set by the time budget: on 4 cores every Spark job here costs
# about a tenth of a second, so call latency follows the job count far more
# than the graph size, and a run must fit set-up, warm-up and one cycle in
# about a minute.
PARAMS: Dict[str, Params] = {
    "static": Params(n=1000, avg_degree=10, iters=10, candidates=2),
    "stream": Params(n=1000, avg_degree=10, iters=6, candidates=2, batch=30, depth=3),
    "stream-query": Params(n=1000, avg_degree=10, iters=10, candidates=2, batch=50, depth=1),
}


def derive_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _timed(fn: Callable):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class Workload:
    """Inputs come only from ``seed``; ``counts`` collects the domain counts
    of the last cycle (reported by the traced run)."""

    ops_per_cycle = 1

    def __init__(self, spark: SparkSession, seed: int, p: Params, outcomes: measures.Outcomes):
        self.spark, self.seed, self.p, self.outcomes = spark, seed, p, outcomes
        self.counts: Dict[str, float] = {}
        self.detail: Dict[str, List[float]] = {}

    def build(self) -> None:
        """Generate the input graph and hand it to Spark (repeatable)."""
        self.pdf = web_graph(n=self.p.n, avg_degree=self.p.avg_degree, seed=self.seed)
        self.edges = self.spark.createDataFrame(self.pdf)

    def base(self) -> None:
        """Build the state the timed calls start from (once)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int) -> List[float]:
        """Run cycle ``c``; returns the latency of each operation."""
        raise NotImplementedError

    def _reference_detect(self, ref, prior_s: float = 0.0) -> tuple:
        """``postprocess_ref`` on a reference state, timed as the NumPy
        baseline of the same detection (plus ``prior_s`` spent building it)."""
        out, dt = _timed(
            lambda: postprocess_ref(ref.edges, ref.g, ref.labels, self.p.candidates)
        )
        self.detail.setdefault("reference_detect_s", []).append(prior_s + dt)
        return out

    def _record(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


class Static(Workload):
    def _detect(self):
        st = rslpa.run_static(self.edges, self.p.iters, self.seed)
        return st, rslpa.detect_communities(st, n_candidates=self.p.candidates)

    def warm_up(self) -> None:
        self._detect()

    def cycle(self, c: int) -> List[float]:
        (st, res), dt = _timed(self._detect)
        if c == 0:  # every cycle has the same input
            ref, ref_s = _timed(lambda: ref_run_static(self.pdf, self.p.iters, self.seed))
            self.ref_cover = self._reference_detect(ref, ref_s)
            self.ref_labels = labels_long(ref.g, ref.labels)
        ok = measures.labels_match(st.labels.toPandas(), self.ref_labels) and measures.cover_match(
            (res.cover(), res.tau1_int, res.tau2_int), self.ref_cover
        )
        self.outcomes.record(1, ok)
        self.counts = {"choices.rows": float(st.choices.count())}
        return [dt]


class Stream(Workload):
    """Back-to-back batches; ``query`` adds one detection after the last."""

    query = False

    @property
    def ops_per_cycle(self) -> int:
        return 1 if self.query else self.p.depth

    def base(self) -> None:
        self.base_state = rslpa.run_static(self.edges, self.p.iters, self.seed)
        self.ref_base = ref_run_static(self.pdf, self.p.iters, self.seed)

    def _batches(self, c: int, depth: int, timings: List[float]):
        """Apply ``depth`` chained batches of cycle ``c`` to the base state;
        returns the Spark and reference states."""
        state, ref = self.base_state, self.ref_base
        self.counts = {}
        for j in range(depth):
            ins, dele = edit_batch(ref.edges, self.p.batch, seed=derive_seed(self.seed, c + 1, j))
            ins_df = self.spark.createDataFrame(ins)
            del_df = self.spark.createDataFrame(dele)
            (state, st), dt = _timed(lambda: incremental.apply_batch(state, ins_df, del_df))
            timings.append(dt)
            ref, ref_stats = ref_apply_batch(ref, ins, dele)
            self._record("incremental.affected_vertices", st.n_affected_vertices)
            self._record("incremental.repicked_rows", st.n_repicked)
            self._record("incremental.rounds", st.rounds)
            self._record("incremental.messages", sum(st.round_deltas))
            self._record("reference.eta", ref_stats["eta"])
        self.counts["incremental.overlay_depth"] = float(depth)
        self.detail.setdefault("update_s", []).extend(timings)
        return state, ref

    def warm_up(self) -> None:
        state, _ = self._batches(-1, 1, [])
        if self.query:
            rslpa.detect_communities(state, n_candidates=self.p.candidates)
        self.detail.clear()

    def cycle(self, c: int) -> List[float]:
        timings: List[float] = []
        state, ref = self._batches(c, self.p.depth, timings)
        if not self.query:
            ok = measures.labels_match(state.labels.toPandas(), labels_long(ref.g, ref.labels))
            self.outcomes.record(self.p.depth, ok)
            return timings
        res, dt = _timed(lambda: rslpa.detect_communities(state, n_candidates=self.p.candidates))
        self.detail.setdefault("query_s", []).append(dt)
        ok = measures.cover_match(
            (res.cover(), res.tau1_int, res.tau2_int), self._reference_detect(ref)
        )
        self.outcomes.record(1, ok)
        return [sum(timings) + dt]


class StreamQuery(Stream):
    query = True


WORKLOADS = {"static": Static, "stream": Stream, "stream-query": StreamQuery}
