"""Pure helpers of the benchmark: sample summaries, outcome counting and the
Spark-vs-reference comparisons. No Spark here, so the helper tests run
without a JVM."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import pandas as pd

TAIL_BEYOND = 10  # a tail percentile must have at least this many samples beyond it


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value)``: the value is the sorted sample that has
    exactly ``TAIL_BEYOND`` samples after it, and the percentile is the share
    of samples at or below that position. ``None`` when the run holds too few
    samples for any such percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, float(xs[n - TAIL_BEYOND - 1])


@dataclass
class Outcomes:
    """Operations attempted and failed; a failure is a raised error or an
    output that differs from the reference."""

    attempted: int = 0
    failed: int = 0

    def record(self, n_ops: int, ok: bool) -> None:
        """Count ``n_ops`` operations whose outputs one check covered."""
        self.attempted += n_ops
        if not ok:
            self.failed += n_ops

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _sorted_labels(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df[["id", "t", "label"]]
        .astype("int64")
        .sort_values(["id", "t"])
        .reset_index(drop=True)
    )


def labels_match(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Label tables ``(id, t, label)`` equal as sets of rows."""
    return _sorted_labels(got).equals(_sorted_labels(want))


def _canonical_cover(cover: Iterable[Set[int]]) -> List[Tuple[int, ...]]:
    return sorted(tuple(sorted(int(v) for v in c)) for c in cover)


def cover_match(
    got: Tuple[Iterable[Set[int]], int, int],
    want: Tuple[Iterable[Set[int]], int, int],
) -> bool:
    """``(cover, tau1_int, tau2_int)`` triples equal, cover order ignored."""
    (gc, g1, g2), (wc, w1, w2) = got, want
    return (g1, g2) == (w1, w2) and _canonical_cover(gc) == _canonical_cover(wc)
