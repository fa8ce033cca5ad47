"""Local SparkSession bootstrap for the ``jobs/`` entry points and the
pytest session fixture in ``conftest.py``.

Both get the same memory sizing (driver memory must be fixed before the JVM
starts, hence the env-var dance) and the same session configs: shuffle
partitions, Arrow, broadcast joins disabled (explicit ``F.broadcast``
hints still apply where an algorithm calls for them), no DataFrame
call-site capture (a stack walk and py4j calls per DataFrame or Column
call, for the context of Spark's error messages), and
``spark.python.daemon.module`` set to ``repro.worker_daemon``, so that no
Python task re-reads the zips on the worker path (about 0.2 s per task;
see that module). A session built without ``local_session`` keeps that
cost.
"""
from __future__ import annotations

import os


def _driver_mem() -> str:
    """~75% of the cgroup memory limit, else 16g; the source is recorded in
    ``_SPARK_DRIVER_MEM_SRC``."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if 1 <= gib <= 1024:  # not v1's "unlimited" (~8.6e9 GiB)
                os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
                return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "16g"


def local_session(app_name: str):
    """A local session (``SPARK_MASTER``, default ``local[*]``)."""
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .config("spark.python.daemon.module", "repro.worker_daemon")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
