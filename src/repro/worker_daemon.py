"""pyspark's worker daemon (``spark.python.daemon.module``) with
``zipimporter.invalidate_caches`` a no-op, inherited by the forked workers.

pyspark calls ``importlib.invalidate_caches()`` at the start of every task;
on Python 3.11 each cached zip importer then re-reads its archive's central
directory, about 0.2 s per task. An archive on the worker path is not
rewritten during a session, and one added later gets a new importer. Path
finders are still invalidated (DESIGN.md §7).
"""
import zipimport

if __name__ == "__main__":
    zipimport.zipimporter.invalidate_caches = lambda self: None
    from pyspark.daemon import manager

    manager()
