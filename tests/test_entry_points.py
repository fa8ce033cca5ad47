"""The entry points reject non-integer vertex ids from the schema, before
any Spark job runs."""
import pandas as pd
import pytest

from repro.core.incremental import apply_batch
from repro.core.rslpa import run_static
from repro.slpa.slpa import run_slpa


@pytest.fixture(scope="module")
def string_edges(spark):
    return spark.createDataFrame(pd.DataFrame({"src": ["a", "b"], "dst": ["b", "c"]}))


def test_run_static_rejects_string_ids(spark, string_edges):
    with pytest.raises(TypeError, match="'src' must hold integer vertex ids"):
        run_static(string_edges, 3, 0)


def test_run_slpa_rejects_string_ids(spark, string_edges):
    with pytest.raises(TypeError, match="integer vertex ids"):
        run_slpa(string_edges, 3, 0)


def test_apply_batch_rejects_string_ids(spark, string_edges):
    st = run_static(
        spark.createDataFrame(pd.DataFrame({"src": [1, 2], "dst": [2, 3]})), 3, 0
    )
    with pytest.raises(TypeError, match="integer vertex ids"):
        apply_batch(st, None, string_edges)


def test_missing_column_is_rejected(spark):
    edges = spark.createDataFrame(pd.DataFrame({"src": [1], "to": [2]}))
    with pytest.raises(TypeError, match="'dst' must hold integer vertex ids, got missing"):
        run_static(edges, 3, 0)
