"""Tests for distributed connected components (repro.cc.components)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.cc.components import connected_components
from repro.cc.reference import component_labels
from repro.webgraph.generator import web_graph


GRAPHS = [
    pd.DataFrame({"src": range(80), "dst": range(1, 81)}),
    web_graph(n=400, avg_degree=3, seed=3),
]


def _labels_of(df):
    return {int(r["id"]): int(r["comp"]) for r in df.collect()}


class TestConnectedComponents:
    def test_two_components(self, spark):
        pdf = pd.DataFrame({"src": [1, 2, 5], "dst": [2, 3, 6]})
        out = _labels_of(connected_components(spark.createDataFrame(pdf)))
        assert out == {1: 1, 2: 1, 3: 1, 5: 5, 6: 5}

    def test_matches_union_find_random(self, spark):
        pdf = web_graph(n=400, avg_degree=3, seed=3)
        out = _labels_of(connected_components(spark.createDataFrame(pdf)))
        ref = component_labels([tuple(r) for r in pdf.to_numpy()], set())
        assert out == ref

    def test_long_path_converges(self, spark):
        # Path of 80 vertices: stresses pointer jumping depth.
        pdf = pd.DataFrame({"src": range(80), "dst": range(1, 81)})
        out = _labels_of(connected_components(spark.createDataFrame(pdf)))
        assert set(out.values()) == {0} and len(out) == 81

    @pytest.mark.parametrize("pdf", GRAPHS, ids=["path80", "web400"])
    def test_global_rounds_finish_split_components(self, spark, checkpoints, pdf):
        # Eight partitions split the components between union-finds, so the
        # global min-label rounds must join what each partition found.
        e = spark.createDataFrame(pdf).repartition(8)
        out = _labels_of(connected_components(e))
        assert out == component_labels([tuple(r) for r in pdf.to_numpy()], set())
        assert len(checkpoints) > 2  # the star rows, then two or more rounds

    @pytest.mark.parametrize("pdf", GRAPHS, ids=["path80", "web400"])
    def test_one_partition_needs_no_round(self, spark, checkpoints, pdf):
        # One union-find sees every edge, so each vertex has one star center
        # and the star rows are the answer: one checkpoint, no round.
        e = spark.createDataFrame(pdf).coalesce(1)
        out = _labels_of(connected_components(e))
        assert out == component_labels([tuple(r) for r in pdf.to_numpy()], set())
        assert len(checkpoints) == 1

    def test_layers_sharing_ids_stay_separate(self, spark):
        # Keyed by (tau, id): layer 0 has 1-2 and 3-4, layer 1 has 2-3.
        # Dropping the layer from the key would join all four ids.
        pdf = pd.DataFrame(
            {"tau": [0, 0, 1], "src": [1, 3, 2], "dst": [2, 4, 3]}
        )
        e = spark.createDataFrame(pdf).select(
            F.struct("tau", F.col("src").alias("id")).alias("src"),
            F.struct("tau", F.col("dst").alias("id")).alias("dst"),
        )
        out = {
            tuple(r["id"]): tuple(r["comp"])
            for r in connected_components(e).collect()
        }
        assert out == {
            (0, 1): (0, 1),
            (0, 2): (0, 1),
            (0, 3): (0, 3),
            (0, 4): (0, 3),
            (1, 2): (1, 2),
            (1, 3): (1, 2),
        }

    def test_comp_is_min_id(self, spark):
        pdf = pd.DataFrame({"src": [10, 7], "dst": [7, 3]})
        out = _labels_of(connected_components(spark.createDataFrame(pdf)))
        assert set(out.values()) == {3}
