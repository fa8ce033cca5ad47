"""Tests for the DataFrame graph substrate (repro.core.graph), with DuckDB
oracle checks for every relational operation."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import graph as G
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def raw_edges(spark):
    pdf = pd.DataFrame(
        {
            "src": [1, 2, 2, 3, 3, 4, 5, 5, 1],
            "dst": [2, 1, 3, 2, 4, 3, 5, 6, 1],
        }
    )
    return spark.createDataFrame(pdf), pdf


class TestAdjacency:
    """``adjacency`` is the one canonicalization of raw input edges."""

    def test_sorted_arrays(self, raw_edges):
        df, _ = raw_edges
        adj = G.adjacency(df).toPandas()
        by_id = {int(r["id"]): list(r["nbrs"]) for _, r in adj.iterrows()}
        assert by_id[3] == [2, 4]
        assert by_id[2] == [1, 3]
        assert all(v == sorted(v) for v in by_id.values())

    def test_dedup_and_loops(self, raw_edges):
        # {1,2} is given as (1,2) and (2,1): one neighbor each way. The
        # self-loops (1,1) and (5,5) leave no neighbor.
        df, _ = raw_edges
        by_id = {r["id"]: list(r["nbrs"]) for r in G.adjacency(df).collect()}
        assert by_id[1] == [2]
        assert by_id[5] == [6]
        assert by_id[2].count(1) == 1

    def test_oracle(self, raw_edges):
        df, pdf = raw_edges
        assert_equivalent(
            G.adjacency(df).select("id", F.explode("nbrs").alias("nbr")),
            """
            SELECT src AS id, dst AS nbr FROM e WHERE src <> dst
            UNION SELECT dst AS id, src AS nbr FROM e WHERE src <> dst
            """,
            e=pdf,
        )

    def test_matches_degrees(self, raw_edges):
        df, pdf = raw_edges
        adj = G.adjacency(df).select("id", F.size("nbrs").alias("degree"))
        assert_equivalent(
            adj,
            """
            SELECT id, COUNT(DISTINCT nbr) AS degree FROM (
                SELECT src AS id, dst AS nbr FROM e
                UNION ALL SELECT dst AS id, src AS nbr FROM e
            ) WHERE id <> nbr GROUP BY id
            """,
            e=pdf,
        )


@pytest.fixture(scope="module")
def adj(raw_edges):
    # {1,2}, {2,3}, {3,4}, {5,6}
    return G.adjacency(raw_edges[0])


def _edit(spark, adj, inserts, deletes):
    frames = (
        None if p is None else spark.createDataFrame(p, "src long, dst long")
        for p in (inserts, deletes)
    )
    return {
        (r["id"], *(None if a is None else tuple(a) for a in r[1:]))
        for r in G.edit(adj, *frames).collect()
    }


class TestApplyEdits:
    """An edit batch against the adjacency table: ``edit`` gives the old and
    new neighbor arrays of the vertices it changes, ``apply_edits`` swaps in
    the changed rows."""

    def test_insert_delete(self, spark, adj):
        # (2, 3) is both inserted and deleted: deletes win.
        got = _edit(spark, adj, [(9, 8), (3, 2)], [(2, 1), (2, 3)])
        assert got == {
            (8, None, (9,)),
            (9, None, (8,)),
            (1, (2,), None),
            (2, (1, 3), None),
            (3, (2, 4), (4,)),
        }

    def test_none_edits_noop(self, spark, adj):
        assert _edit(spark, adj, None, None) == set()

    def test_insert_existing_is_noop(self, spark, adj):
        assert _edit(spark, adj, [(2, 1), (3, 4)], None) == set()

    def test_delete_absent_is_noop(self, spark, adj):
        # (1, 3) joins two present vertices, (7, 8) two absent ones.
        assert _edit(spark, adj, None, [(3, 1), (7, 8)]) == set()

    def test_insert_delete_new_vertex_is_noop(self, spark, adj):
        # 7 is not in the graph; {1,7} is inserted and deleted in one batch.
        assert _edit(spark, adj, [(1, 7)], [(7, 1)]) == set()

    def test_apply_drops_and_adds_vertex(self, spark, adj):
        # Delete {1,2} (vertex 1 drops to degree 0), insert {6,7} (new 7).
        changed = spark.createDataFrame(
            [(1, None), (2, [3]), (6, [5, 7]), (7, [6])],
            "id long, new_nbrs array<long>",
        )
        new = G.apply_edits(adj, changed).collect()
        got = {r["id"]: list(r["nbrs"]) for r in new}
        assert got == {2: [3], 3: [2, 4], 4: [3], 5: [6], 6: [5, 7], 7: [6]}
