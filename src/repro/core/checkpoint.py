"""The one materialization policy of every Spark table the program keeps.

A frame is written once, coalesced to its partition constant and
checkpointed eagerly; the counts a caller branches on are ``Observation``
metrics of that write, so they cost no Spark job of their own. A small frame
held on the driver reaches Spark as a one-partition local frame
(``local_frame``), which is never written.
"""
from __future__ import annotations

from typing import Any, Dict, Tuple

import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, SparkSession

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
    spark: SparkSession, data: pd.DataFrame | Dict[str, Any], schema: str
) -> DataFrame:
    """``data`` (a pandas frame, or its columns) as a one-partition Spark
    frame of ``schema``, a DDL string matched by position. Its rows live in
    the plan, so a broadcast of it ships them without a shuffle, and a union
    with it adds one partition."""
    return spark.createDataFrame(pd.DataFrame(data), schema).coalesce(1)
