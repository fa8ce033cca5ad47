"""The one materialization policy of every Spark table the program keeps.

A frame is written once, coalesced to its partition constant and
checkpointed eagerly; the counts a caller branches on are ``Observation``
metrics of that write, so they cost no Spark job of their own. A small frame
held on the driver reaches Spark as a one-partition local frame
(``local_frame``), which is never written; ``lookup`` collects the rows of a
table that such a frame names.
"""
from __future__ import annotations

from typing import Any, Dict, Tuple

import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

N_STATE_PARTS = 16  # state tables are scan-heavy; keep task counts low
ID_SCHEMA = T.StructType().add("id", T.LongType())


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
    spark: SparkSession, data: pd.DataFrame | Dict[str, Any], schema: T.StructType
) -> DataFrame:
    """``data`` (a pandas frame, or its columns) as a one-partition Spark
    frame of ``schema``, matched by position. A ``StructType`` module
    constant is not parsed again on every call, as a DDL string is. The
    rows live in the plan, so a broadcast of it ships them without a
    shuffle, and a union with it adds one partition."""
    return spark.createDataFrame(pd.DataFrame(data), schema).coalesce(1)


def lookup(
    table: DataFrame, keys: pd.DataFrame | Dict[str, Any], schema: T.StructType
) -> pd.DataFrame:
    """The rows of ``table`` whose ``schema`` columns equal a row of ``keys``
    (held on the driver, matched to ``schema`` by position), collected. One
    broadcast semi-join against their local frame finds them, so only the
    matching rows move and nothing is shuffled."""
    frame = local_frame(table.sparkSession, keys, schema)
    return table.join(F.broadcast(frame), schema.names, "left_semi").toPandas()
