"""rSLPA benchmark: one workload per process on Spark ``local[N]``.

    python3 perfbench/run.py --workload static|stream|stream-query \
        --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` and
started through ``repro.spark_session.local_session``, so the benchmark
measures the session the program's own jobs use. After the untimed set-up
and warm-up, whole cycles of the workload (see ``workloads.py``) run until
their timed part adds up to ``--seconds``; every cycle is checked against
the NumPy reference engines outside the timed region.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` exactly one cycle runs with spans around the program's
layers, and the metrics are the per-layer ones (spans go to
``.perfbench/trace-<workload>-<seed>.json``). The line before it,
``provenance {...}``, records the seed, sizes, graph statistics, Spark
master, per-call timings and the set-up breakdown.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # session start includes the imports below

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import measures
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEM = "2g"
BUILD_REPEATS = 3  # input generation is repeated and its median charged to setup_s
WORKLOAD_NAMES = ("static", "stream", "stream-query")

# Spans: (module, attribute, span name). Functions are wrapped where their
# callers look them up, e.g. ``postprocess`` calls ``connected_components``
# through its own module namespace.
SPANS = (
    ("repro.core.rslpa", "run_static", "rslpa.run_static"),
    ("repro.core.rslpa", "draw_choices", "choices.draw_choices"),
    ("repro.core.rslpa", "resolve_labels", "resolve.resolve_labels"),
    ("repro.core.rslpa", "detect_communities", "rslpa.detect_communities"),
    ("repro.core.postprocess", "edge_weights", "postprocess.edge_weights"),
    ("repro.core.postprocess", "extract_communities", "postprocess.extract_communities"),
    ("repro.core.postprocess", "connected_components", "cc.connected_components"),
    ("repro.core.incremental", "apply_batch", "incremental.apply_batch"),
    ("repro.core.graph", "apply_edits", "graph.apply_edits"),
)
SPAN_METRICS = (
    ("calls", "count", "lower"),
    ("wall_s", "s", "lower"),
    ("self_s", "s", "lower"),
    ("spark_jobs", "count", "lower"),
    ("spark_stages", "count", "lower"),
    ("spark_tasks", "count", "lower"),
    ("exec_busy_s", "s", "lower"),
    ("shuffle_bytes", "B", "lower"),
    ("busy_share", "share", "higher"),
)
DOMAIN_METRICS = (
    ("choices.rows", "count", "lower"),
    ("resolve.rounds", "count", "lower"),
    ("postprocess.candidates", "count", "lower"),
    ("cc.rounds", "count", "lower"),
    ("incremental.affected_vertices", "count", "lower"),
    ("incremental.repicked_rows", "count", "lower"),
    ("incremental.rounds", "count", "lower"),
    ("incremental.messages", "count", "lower"),
    ("incremental.useful_ratio", "share", "higher"),
    ("incremental.overlay_depth", "count", "lower"),
    ("reference.detect_s", "s", "lower"),
    ("traced.op_s.p50", "s", "lower"),
)
END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
)


def per_layer_catalog():
    """Every per-layer metric as ``(name, unit, better)``."""
    out = [(f"{span}.{key}", unit, better) for _, _, span in SPANS for key, unit, better in SPAN_METRICS]
    return out + list(DOMAIN_METRICS)


def configure_env(trace: bool) -> None:
    """Pin the Spark deployment and keep every file the run writes inside
    the checkout. Must run before pyspark starts its JVM."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = os.environ
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["SPARK_MASTER"] = f"local[{CORES}]"
    env["SPARK_DRIVER_MEM"] = DRIVER_MEM
    env["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    env["TMPDIR"] = str(tmp)
    env["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)  # the program's default
    env.pop("PYSPARK_SUBMIT_ARGS", None)  # local_session builds the program's own
    if trace:
        # The program disables the UI; the traced run needs it for the REST
        # stage API, with room for every job and stage of the run.
        env["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {env['SPARK_MASTER']} --driver-memory {DRIVER_MEM} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=true "
            "--conf spark.ui.port=0 --conf spark.ui.retainedJobs=1000000 "
            "--conf spark.ui.retainedStages=1000000 pyspark-shell"
        )


def vm_hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop_spark(spark) -> None:
    """Stop the session, then end the gateway JVM and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits at end of input
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def install_spans(tracer, spark) -> None:
    import importlib

    from repro.core import postprocess

    for module, attr, name in SPANS:
        tracer.wrap(importlib.import_module(module), attr, name)
    # Loops of resolve and cc checkpoint once for the initial state and once
    # per round, so rounds = checkpoints - calls.
    tracer.count_calls(type(spark.range(0)), "localCheckpoint", "checkpoints")
    tracer.count_calls(postprocess, "candidate_taus", "candidates", len)


def layer_metrics(summary, counts, detail, op_times):
    out = {}
    for _, _, span in SPANS:
        rec = summary.get(span, {})
        for key, unit, _ in SPAN_METRICS:
            if key == "busy_share":
                wall = rec.get("wall_s", 0.0)
                val = rec.get("exec_busy_s", 0.0) / (wall * CORES) if wall else 0.0
            else:
                val = rec.get(key, 0.0)
            out[f"{span}.{key}"] = (val, unit)

    def rounds(span):
        rec = summary.get(span, {})
        return rec.get("checkpoints", 0.0) - rec.get("calls", 0.0)

    messages = counts.get("incremental.messages", 0.0)
    derived = {
        "choices.rows": counts.get("choices.rows", 0.0),
        "resolve.rounds": rounds("resolve.resolve_labels"),
        "postprocess.candidates": summary.get("rslpa.detect_communities", {}).get("candidates", 0.0),
        "cc.rounds": rounds("cc.connected_components"),
        "incremental.useful_ratio": counts.get("reference.eta", 0.0) / messages if messages else 0.0,
        "reference.detect_s": statistics.median(detail["reference_detect_s"])
        if detail.get("reference_detect_s")
        else 0.0,
        "traced.op_s.p50": statistics.median(op_times),
    }
    for name, unit, _ in DOMAIN_METRICS:
        out[name] = (derived[name] if name in derived else counts.get(name, 0.0), unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    configure_env(bool(args.trace))
    sys.path.insert(0, str(SRC))

    import workloads as wl
    from repro.spark_session import local_session
    from repro.webgraph.generator import graph_stats

    spark = local_session("perfbench")
    session_s = time.perf_counter() - _T0
    try:
        outcomes = measures.Outcomes()
        params = wl.PARAMS[args.workload]
        work = wl.WORKLOADS[args.workload](spark, args.seed, params, outcomes)
        build_s = []
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            work.build()
            build_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        work.base()
        base_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        work.warm_up()
        warmup_s = time.perf_counter() - t0
        setup_s = session_s + statistics.median(build_s) + base_s + warmup_s

        tracer = None
        if args.trace:
            tracer = spans.Tracer(sc=spark.sparkContext)
            install_spans(tracer, spark)
        op_times = []
        cycle = 0
        while True:
            try:
                op_times += work.cycle(cycle)
            except Exception:  # a failed call ends the run; it counts as failed
                traceback.print_exc()
                outcomes.record(work.ops_per_cycle, False)
                break
            cycle += 1
            if args.trace or sum(op_times) >= args.seconds:
                break
        if not op_times:
            print("no operation completed", file=sys.stderr)
            return 1

        peak_mb = vm_hwm_mb("self") + vm_hwm_mb(spark.sparkContext._gateway.proc.pid)
        tail = measures.tail(op_times)
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "params": vars(params),
            "graph": graph_stats(work.pdf),
            "spark_master": spark.sparkContext.master,
            "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "spark_version": spark.version,
            "cycles": cycle,
            "op_s": op_times,
            "op_s.tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            "setup": {"session_s": session_s, "build_s": build_s, "base_s": base_s, "warmup_s": warmup_s},
            # Python driver plus gateway JVM; not an end-to-end metric because
            # JVM heap growth makes it spread too widely between seeds.
            "peak_rss_mb": peak_mb,
            "detail": work.detail,
        }
        if args.trace:
            tracer.unpatch()
            spark_counts = spans.spark_counts(spark.sparkContext, tracer.spans)
            tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
            summary = spans.layer_summary(tracer.spans, spark_counts)
            metrics = layer_metrics(summary, work.counts, work.detail, op_times)
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s.p50": (statistics.median(op_times), "s"),
            }
        print("provenance " + json.dumps(provenance))
        print(
            json.dumps(
                {
                    "correct": outcomes.failed == 0,
                    "attempted": outcomes.attempted,
                    "failed": outcomes.failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
        return 0
    finally:
        stop_spark(spark)


if __name__ == "__main__":
    sys.exit(main())
