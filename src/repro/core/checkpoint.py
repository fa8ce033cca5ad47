"""The one materialization policy of every Spark table the program keeps.

A frame is written once, coalesced to its partition constant and
checkpointed eagerly; the counts a caller branches on are ``Observation``
metrics of that write, so they cost no Spark job of their own. A small frame
held on the driver reaches Spark as a one-partition local frame
(``local_frame``), which is never written and is typed by the table it
meets: ``lookup`` collects the table rows it names, and ``swap`` replaces
the rows of a set of vertices with it.
"""
from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

N_STATE_PARTS = 16  # state tables are scan-heavy; keep task counts low


def materialize(
    df: DataFrame, n_parts: int, *cols: Column | str, **metrics: Column
) -> Tuple[DataFrame, Dict[str, Any]]:
    """Checkpoint ``df``, projected to ``cols`` if given, in at most
    ``n_parts`` partitions; returns it with the named aggregate ``metrics``
    of ``df``, observed on the same write."""
    obs = Observation()
    if metrics:
        df = df.observe(obs, *(c.alias(k) for k, c in metrics.items()))
    if cols:
        df = df.select(*cols)
    out = df.coalesce(n_parts).localCheckpoint(eager=True)
    return out, obs.get if metrics else {}


def release(df: DataFrame) -> None:
    """Free now every checkpoint ``df`` reads, which ``unpersist`` does not
    do for a local checkpoint (Spark 4.1). Nothing may read them again."""
    leaves = df._jdf.queryExecution().analyzed().collectLeaves()
    for leaf in (leaves.apply(i) for i in range(leaves.size())):
        if leaf.nodeName() == "LogicalRDD":
            leaf.rdd().unpersist(True)


def local_frame(
    spark: SparkSession, data: pd.DataFrame | Dict[str, Any], schema: T.StructType | str
) -> DataFrame:
    """``data`` (a pandas frame, or its columns) as a one-partition Spark
    frame of ``schema``, matched by position. A pandas frame (Arrow) becomes
    a local relation, where a list would become a Python RDD, and
    ``createDataFrame`` alone would slice it into ``defaultParallelism``
    tasks. A broadcast of it ships its rows without a shuffle, and a union
    with it adds one partition."""
    return spark.createDataFrame(pd.DataFrame(data), schema).coalesce(1)


def _keys(table: DataFrame, keys: pd.DataFrame) -> DataFrame:
    """The broadcast local frame of ``keys``, each column typed as ``table``'s
    column of its name (``DataFrame.schema`` is cached per frame)."""
    schema = T.StructType([table.schema[c] for c in keys.columns])
    return F.broadcast(local_frame(table.sparkSession, keys, schema))


def lookup(table: DataFrame, keys: pd.DataFrame | Dict[str, Any]) -> pd.DataFrame:
    """The rows of ``table`` that equal a row of ``keys`` (held on the driver)
    in the columns ``keys`` names, collected: one broadcast semi-join, so
    only the matching rows move and nothing is shuffled."""
    keys = pd.DataFrame(keys)
    return table.join(_keys(table, keys), list(keys), "left_semi").toPandas()


def swap(
    table: DataFrame, ids: np.ndarray, rows: pd.DataFrame | Dict[str, Any]
) -> DataFrame:
    """``table`` without the rows of the vertices ``ids``, plus ``rows`` (held
    on the driver, in ``table``'s column order): one broadcast anti-join and
    one union, each left out when it has no row, since every broadcast of a
    local frame costs a Spark job."""
    if len(ids):
        table = table.join(_keys(table, pd.DataFrame({"id": ids})), "id", "left_anti")
    rows = pd.DataFrame(rows)
    if len(rows):
        table = table.unionByName(local_frame(table.sparkSession, rows, table.schema))
    return table
