"""Bit-equality of the Spark dataflow engines against the NumPy references.

These are the strongest correctness checks in the repo: because both engines
consume identical splitmix64 draws, any divergence in the Spark joins,
pointer doubling or mapInPandas kernels shows up as an exact mismatch — not
a statistical blur.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.choices import draw_choices
from repro.core.graph import adjacency
from repro.core.resolve import resolve_labels
from repro.reference.rslpa_ref import (
    draw_choice_matrices,
    labels_long,
    propagate,
)
from repro.slpa.reference import run_slpa_ref, slpa_communities_ref
from repro.slpa.slpa import memory_counts, run_slpa, slpa_communities
from repro.webgraph.generator import web_graph

T_ITERS = 8
SEED = 5


@pytest.fixture(scope="module")
def small_graph(spark):
    pdf = web_graph(n=250, avg_degree=6, seed=1)
    return spark.createDataFrame(pdf).cache(), pdf


class TestChoicesEquality:
    def test_choice_table_bit_identical(self, spark, small_graph):
        df, pdf = small_graph
        adj = adjacency(df)
        sp = (
            draw_choices(adj, T_ITERS, SEED)
            .toPandas()
            .sort_values(["id", "t"])
            .reset_index(drop=True)
            .astype("int64")
        )
        g, src, pos, _ = propagate(pdf, T_ITERS, SEED)
        ref = (
            pd.DataFrame(
                {
                    "id": np.repeat(g.ids, T_ITERS),
                    "t": np.tile(np.arange(1, T_ITERS + 1), g.n),
                    "src": src.ravel(),
                    "pos": pos.ravel(),
                }
            )
            .sort_values(["id", "t"])
            .reset_index(drop=True)
            .astype("int64")
        )
        pd.testing.assert_frame_equal(sp, ref)

    def test_epoch_changes_spark_draws(self, spark, small_graph):
        df, _ = small_graph
        adj = adjacency(df)
        a = draw_choices(adj, 3, SEED, epoch=0).toPandas()
        b = draw_choices(adj, 3, SEED, epoch=1).toPandas()
        merged = a.merge(b, on=["id", "t"], suffixes=("_a", "_b"))
        assert (merged["src_a"] != merged["src_b"]).any() or (
            merged["pos_a"] != merged["pos_b"]
        ).any()

    def test_degree_zero_vertices_excluded(self, spark):
        adj = spark.createDataFrame(
            pd.DataFrame({"id": [1, 2], "nbrs": [[2], []]})
        )
        out = draw_choices(adj, 4, 0).toPandas()
        assert set(out["id"]) == {1}


class TestResolveEquality:
    def test_labels_bit_identical(self, spark, small_graph):
        df, pdf = small_graph
        adj = adjacency(df)
        ch = draw_choices(adj, T_ITERS, SEED)
        sp = (
            resolve_labels(ch)
            .toPandas()
            .sort_values(["id", "t"])
            .reset_index(drop=True)
            .astype("int64")
        )
        g, _, _, labels = propagate(pdf, T_ITERS, SEED)
        ref = (
            labels_long(g, labels)
            .sort_values(["id", "t"])
            .reset_index(drop=True)
            .astype("int64")
        )
        pd.testing.assert_frame_equal(sp, ref)

    def test_labels_bit_identical_across_partitions(
        self, spark, small_graph, checkpoints
    ):
        # Eight partitions cut the pointer chains, so the global doubling
        # rounds must finish what each partition's local pass started.
        df, pdf = small_graph
        adj = adjacency(df)
        ch = draw_choices(adj, T_ITERS, SEED).repartition(8)
        sp = resolve_labels(ch).toPandas().sort_values(["id", "t"])
        g, _, _, labels = propagate(pdf, T_ITERS, SEED)
        ref = labels_long(g, labels).sort_values(["id", "t"])
        pd.testing.assert_frame_equal(
            sp.reset_index(drop=True).astype("int64"),
            ref.reset_index(drop=True).astype("int64"),
        )
        assert len(checkpoints) > 1  # the local pass, then global rounds

    def test_anchor_rows(self, spark, small_graph):
        df, _ = small_graph
        adj = adjacency(df)
        ch = draw_choices(adj, 4, SEED)
        lab = resolve_labels(ch)
        bad = lab.where((F.col("t") == 0) & (F.col("label") != F.col("id")))
        assert bad.count() == 0

    def test_row_count(self, spark, small_graph):
        df, _ = small_graph
        adj = adjacency(df)
        n_v = adj.count()
        lab = resolve_labels(draw_choices(adj, 5, SEED))
        assert lab.count() == n_v * 6


class TestSlpaEquality:
    def test_memory_bit_identical(self, spark, small_graph):
        df, pdf = small_graph
        mem = (
            run_slpa(df, 5, SEED)
            .toPandas()
            .sort_values(["id", "t"])
            .reset_index(drop=True)
            .astype("int64")
        )
        g, ref = run_slpa_ref(pdf, 5, SEED)
        ref = (
            labels_long(g, ref)
            .sort_values(["id", "t"])
            .reset_index(drop=True)
            .astype("int64")
        )
        pd.testing.assert_frame_equal(mem, ref)

    def test_memory_keeps_its_partition_count(self, spark, small_graph):
        df, _ = small_graph
        n_parts = run_slpa(df, 0, SEED).rdd.getNumPartitions()
        assert run_slpa(df, 6, SEED).rdd.getNumPartitions() == n_parts

    def test_communities_equal_reference(self, spark, small_graph):
        df, pdf = small_graph
        got = slpa_communities(run_slpa(df, T_ITERS, SEED), 0.2, T_ITERS)
        assert got == slpa_communities_ref(pdf, T_ITERS, SEED, 0.2)

    def test_memory_counts_oracle(self, spark, small_graph):
        from repro.oracle import assert_equivalent

        df, _ = small_graph
        mem = run_slpa(df, 3, SEED)
        assert_equivalent(
            memory_counts(mem),
            "SELECT id, label, COUNT(*) AS cnt FROM x GROUP BY id, label",
            x=mem,
        )
