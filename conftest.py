import os
import sys

import pytest
from pyspark.sql import SparkSession


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master, driver memory and session configs come from
    ``repro.spark_session``, the same bootstrap the jobs use. Automatic
    broadcast joins are off session-wide; the algorithms broadcast their
    small sides with explicit ``F.broadcast`` hints (DESIGN.md §7).
    """
    # Imported here so that suites which never ask for Spark (``perfbench``)
    # load this file without ``src`` on the path.
    from repro.spark_session import local_session

    s = local_session("repro")
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()


@pytest.fixture
def checkpoints(spark, monkeypatch):
    """One entry per ``localCheckpoint`` call made in the test: the
    iterative loops checkpoint once up front and once per round."""
    frame_type = type(spark.range(0))  # the session's concrete DataFrame
    calls = []
    orig = frame_type.localCheckpoint

    def counted(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(frame_type, "localCheckpoint", counted)
    return calls
