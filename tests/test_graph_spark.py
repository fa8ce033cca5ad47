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


class TestCanonicalEdges:
    def test_orientation(self, raw_edges):
        df, _ = raw_edges
        out = G.canonical_edges(df).toPandas()
        assert (out["src"] < out["dst"]).all()

    def test_dedup_and_loops(self, raw_edges):
        df, _ = raw_edges
        out = G.canonical_edges(df).toPandas()
        # {1,2}, {2,3}, {3,4}, {5,6} — loops (1,1),(5,5) dropped, dups merged.
        assert len(out) == 4

    def test_oracle(self, raw_edges):
        df, pdf = raw_edges
        assert_equivalent(
            G.canonical_edges(df),
            """
            SELECT DISTINCT LEAST(src, dst) AS src, GREATEST(src, dst) AS dst
            FROM e WHERE src <> dst
            """,
            e=pdf,
        )


class TestSymmetrizeDegrees:
    def test_symmetrize_doubles(self, raw_edges):
        df, _ = raw_edges
        e = G.canonical_edges(df)
        assert G.symmetrize(e).count() == 2 * e.count()


class TestAdjacency:
    def test_sorted_arrays(self, raw_edges):
        df, _ = raw_edges
        adj = G.adjacency(G.canonical_edges(df)).toPandas()
        by_id = {int(r["id"]): list(r["nbrs"]) for _, r in adj.iterrows()}
        assert by_id[3] == [2, 4]
        assert by_id[2] == [1, 3]
        assert all(v == sorted(v) for v in by_id.values())

    def test_matches_degrees(self, raw_edges):
        df, _ = raw_edges
        e = G.canonical_edges(df)
        adj = G.adjacency(e).select(
            "id", F.size("nbrs").alias("degree")
        )
        assert_equivalent(
            adj,
            """
            SELECT id, COUNT(*) AS degree FROM (
                SELECT src AS id FROM e UNION ALL SELECT dst AS id FROM e
            ) GROUP BY id
            """,
            e=e,
        )


class TestEdgeList:
    def test_oracle(self, raw_edges):
        df, _ = raw_edges
        e = G.canonical_edges(df)
        assert_equivalent(
            G.edge_list(G.adjacency(e)), "SELECT src, dst FROM e", e=e
        )


@pytest.fixture(scope="module")
def adj(raw_edges):
    # {1,2}, {2,3}, {3,4}, {5,6}
    return G.adjacency(G.canonical_edges(raw_edges[0]))


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
