"""Spans around the program's layers, recorded from outside the program.

``Tracer.wrap`` replaces a public function by module attribute with a
wrapper that opens a span around each call, so ``src/`` stays untouched.
Spans live in memory and are written out when the run ends. With a
SparkContext attached, every span instance runs its Spark jobs under a job
group of its own; ``spark_counts`` then reads jobs, stages and tasks from the
status tracker and executor busy time and shuffle bytes from the driver's
REST stage API. Counts are attributed to the innermost open span, and
``layer_summary`` adds a span's descendants back in, so every per-layer
number covers the whole call (``self_s`` excepted).
"""
from __future__ import annotations

import functools
import json
import time
import urllib.request
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

SPARK_KEYS = ("spark_jobs", "spark_stages", "spark_tasks", "exec_busy_s", "shuffle_bytes")
_IDLE_GROUP = "perfbench.untraced"


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def group(self) -> str:
        return f"perfbench.span.{self.id}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter, sc=None):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._clock = clock
        self._sc = sc
        self._patches: list = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self._clock())
        self.spans.append(sp)
        self._stack.append(sp)
        self._set_group()
        try:
            yield sp
        finally:
            sp.end = self._clock()
            self._stack.pop()
            self._set_group()

    def _set_group(self) -> None:
        if self._sc is not None:
            group = self._stack[-1].group if self._stack else _IDLE_GROUP
            self._sc.setJobGroup(group, group)

    def count(self, key: str, value: float = 1.0) -> None:
        """Add to a count of the innermost open span (dropped outside spans)."""
        if self._stack:
            self._stack[-1].counts[key] += value

    def _patch(self, owner, attr: str, make: Callable) -> None:
        orig = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._patches.append((owner, attr, orig))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Open span ``name`` around every call of ``owner.attr``."""

        def make(orig):
            def traced(*args, **kwargs):
                with self.span(name):
                    return orig(*args, **kwargs)

            return traced

        self._patch(owner, attr, make)

    def count_calls(
        self, owner, attr: str, key: str, measure: Callable = lambda _: 1
    ) -> None:
        """Add ``measure(result)`` of every ``owner.attr`` call to ``key``."""

        def make(orig):
            def counted(*args, **kwargs):
                out = orig(*args, **kwargs)
                self.count(key, measure(out))
                return out

            return counted

        self._patch(owner, attr, make)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path) -> None:
        rows = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "counts": dict(s.counts),
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(rows, f)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    kids: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(kids[s.id]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_summary(
    spans: List[Span], spark: Optional[Dict[int, Dict[str, float]]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``wall_s``, ``self_s``, every span count and
    every Spark count, the last two including the span's descendants."""
    by_id = {s.id: s for s in spans}
    own: Dict[int, Dict[str, float]] = {}
    for s in spans:
        rec = defaultdict(float, s.counts)
        for k, v in (spark or {}).get(s.id, {}).items():
            rec[k] += v
        own[s.id] = rec
    inclusive = {s.id: defaultdict(float) for s in spans}
    for s in spans:  # push each span's own counts up to all its ancestors
        node: Optional[int] = s.id
        while node is not None:
            for k, v in own[s.id].items():
                inclusive[node][k] += v
            node = by_id[node].parent

    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        rec = out.setdefault(s.name, defaultdict(float))
        rec["calls"] += 1
        rec["self_s"] += selfs[s.id]
        rec["wall_s"] += s.end - s.start
        for k, v in inclusive[s.id].items():
            rec[k] += v
    return out


def spark_counts(sc, spans: List[Span], settle_s: float = 30.0) -> Dict[int, Dict[str, float]]:
    """Own Spark counts of each span: jobs of its job group, the stages those
    jobs ran (a stage reused by a later job counts once, for the first), their
    tasks, executor run time and shuffle bytes written."""
    tracker = sc.statusTracker()
    stages = _settled_stages(sc, tracker, settle_s)
    owner = {}
    for s in spans:
        for job in tracker.getJobIdsForGroup(s.group):
            owner[job] = s.id
    seen = set()
    out: Dict[int, Dict[str, float]] = {}
    for job in sorted(owner):
        rec = out.setdefault(owner[job], dict.fromkeys(SPARK_KEYS, 0.0))
        rec["spark_jobs"] += 1
        info = tracker.getJobInfo(job)
        for sid in info.stageIds if info else ():
            if sid in seen or sid not in stages:
                continue  # skipped here, or ran for an earlier job
            seen.add(sid)
            tasks, busy_s, shuffle = stages[sid]
            rec["spark_stages"] += 1
            rec["spark_tasks"] += tasks
            rec["exec_busy_s"] += busy_s
            rec["shuffle_bytes"] += shuffle
    return out


def _rest_stages(sc) -> Dict[int, tuple]:
    """Completed stages from the REST API: id -> (tasks, run s, shuffle bytes)."""
    url = f"{sc.uiWebUrl}/api/v1/applications/{sc.applicationId}/stages?status=complete"
    with urllib.request.urlopen(url, timeout=60) as resp:
        data = json.load(resp)
    out: Dict[int, tuple] = {}
    for st in data:
        tasks, busy, shuffle = out.get(st["stageId"], (0, 0.0, 0))
        out[st["stageId"]] = (
            tasks + st["numCompleteTasks"],
            busy + st["executorRunTime"] / 1000.0,
            shuffle + st["shuffleWriteBytes"],
        )
    return out


def _settled_stages(sc, tracker, settle_s: float) -> Dict[int, tuple]:
    """Poll until no job runs and the listener has caught up (stage count
    unchanged between two polls): status events are delivered asynchronously."""
    deadline = time.monotonic() + settle_s
    prev = None
    while True:
        stages = _rest_stages(sc)
        idle = not tracker.getActiveJobsIds()
        if (idle and prev is not None and len(stages) == len(prev)) or time.monotonic() > deadline:
            return stages
        prev = stages
        time.sleep(0.5)
