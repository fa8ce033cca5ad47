"""The one chain kernel (``repro.core.resolve.chain_ends``), which both
resolve's local pass and the incremental overlay run, against a per-row
walk of each chain."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.resolve import chain_ends

BIG = 2**62
# Ids near both ends of int64 and around 0; a row's source may be any of
# them, so some chains leave the set.
POOL = [-BIG - 1, -BIG, -1, 0, 1, 2, BIG - 1, BIG, BIG + 1]


@st.composite
def chain_sets(draw):
    """Rows ``(id, t, src, pos)`` with distinct ``(id, t)``: a ``t = 0`` row
    is a self-linked anchor, any other row links below its own ``t``."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(POOL), st.integers(0, 6)),
            unique=True,
            max_size=40,
        )
    )
    return [
        (i, 0, i, 0)
        if t == 0
        else (i, t, draw(st.sampled_from(POOL)), draw(st.integers(0, t - 1)))
        for i, t in keys
    ]


def _walk(rows):
    """Each row's chain, followed one link at a time."""
    at = {row[:2]: k for k, row in enumerate(rows)}
    ends = []
    for k in range(len(rows)):
        j = k
        while at.get(rows[j][2:], j) != j:
            j = at[rows[j][2:]]
        ends.append(j)
    return ends


@settings(max_examples=300, deadline=None)
@given(chain_sets())
@example([])
@example([(BIG, 0, BIG, 0), (BIG, 1, BIG, 0), (-BIG, 2, BIG, 1)])
def test_chain_ends_equal_a_walk(rows):
    ids, srcs = (np.array([r[c] for r in rows], dtype=np.int64) for c in (0, 2))
    ts, poss = (np.array([r[c] for r in rows], dtype=np.int32) for c in (1, 3))
    assert chain_ends(ids, ts, srcs, poss).tolist() == _walk(rows)
