"""The session's Python workers run ``repro.worker_daemon``: inside a task,
``importlib.invalidate_caches()`` still invalidates the path finders but
no longer re-reads the zips on the worker path. A Spark upgrade that stops
honouring ``spark.python.daemon.module`` fails here."""
import pandas as pd

N_TASKS = 8
N_CALLS = 5


def test_session_names_the_daemon(spark):
    conf = spark.sparkContext.getConf()
    assert conf.get("spark.python.daemon.module") == "repro.worker_daemon"


def test_invalidate_caches_skips_zips_in_every_task(spark):
    def probe(batches):
        import importlib
        import statistics
        import sys
        import time
        import zipimport
        from importlib.machinery import FileFinder

        for _ in batches:
            pass
        cache = sys.path_importer_cache
        zips = sum(isinstance(f, zipimport.zipimporter) for f in cache.values())
        secs = []
        for _ in range(N_CALLS):
            t0 = time.perf_counter()
            importlib.invalidate_caches()
            secs.append(time.perf_counter() - t0)
        finders = [f for f in cache.values() if isinstance(f, FileFinder)]
        yield pd.DataFrame(
            {
                "zips": [zips],
                "finders": [len(finders)],
                "stale": [sum(f._path_mtime != -1 for f in finders)],
                "median_s": [statistics.median(secs)],
            }
        )

    rows = (
        spark.range(N_TASKS, numPartitions=N_TASKS)
        .mapInPandas(probe, "zips long, finders long, stale long, median_s double")
        .toPandas()
    )
    assert len(rows) == N_TASKS
    for r in rows.itertuples():
        assert r.zips >= 1  # the probe times a path with a zip on it
        assert r.finders >= 1 and r.stale == 0  # non-zip finders still invalidated
        assert r.median_s < 0.010, f"invalidate_caches took {r.median_s:.3f} s"
