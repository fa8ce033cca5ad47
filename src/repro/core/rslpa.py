"""End-to-end rSLPA on Spark: Algorithm 1 + Section III-B post-processing.

``run_static`` performs the randomized label propagation from scratch and
returns an :class:`RslpaState` — the complete paper state: the graph (kept
only as its sorted adjacency table), the choice table (``src``/``pos`` per
(vertex, iteration) — which doubles as the receiver records R via the
reverse join), and the resolved label table.
``repro.core.incremental.apply_batch`` evolves that state under edge edits.
``detect_communities`` runs the post-processing on whatever state you have —
the paper's operational mode of "handle changes continuously, compute
communities once per hour" (Section V-B3) falls out of this split.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.core import graph as G
from repro.core.checkpoint import N_STATE_PARTS, materialize, release
from repro.core.choices import draw_choices
from repro.core.postprocess import PostprocessResult, postprocess
from repro.core.resolve import resolve_labels


@dataclass
class RslpaState:
    """Everything rSLPA must retain between batches (paper Section IV).

    The graph is stored once, as its adjacency table, which the
    post-processing also reads."""

    adjacency: DataFrame  # (id, sorted nbrs) for degree >= 1 vertices
    choices: DataFrame  # (id, t, src, pos) for t in [1..T]
    labels: DataFrame  # (id, t, label) for t in [0..T]
    n_iters: int
    seed: int
    epoch: int  # bumps once per batch that changes an edge -> fresh draws

    def release(self) -> None:
        """Free the state's three tables now; nothing may read them again.
        ``apply_batch`` never does this for its input, since a caller may
        branch several streams from one state."""
        for table in (self.adjacency, self.choices, self.labels):
            release(table)


def run_static(edges: DataFrame, n_iters: int, seed: int) -> RslpaState:
    """Algorithm 1 from scratch on a static graph, for ``n_iters ≥ 1``."""
    if n_iters < 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    G.check_ids(edges)
    adj, _ = materialize(G.adjacency(edges), N_STATE_PARTS)
    choices, _ = materialize(draw_choices(adj, n_iters, seed, 0), N_STATE_PARTS)
    resolved = resolve_labels(choices)
    labels, _ = materialize(resolved, N_STATE_PARTS)
    release(resolved)  # the last pointer-doubling round
    return RslpaState(
        adjacency=adj,
        choices=choices,
        labels=labels,
        n_iters=n_iters,
        seed=seed,
        epoch=0,
    )


def detect_communities(
    state: RslpaState, n_candidates: int = 8
) -> PostprocessResult:
    """Section III-B post-processing over the current label table."""
    return postprocess(
        state.adjacency, state.labels, state.n_iters, n_candidates=n_candidates
    )
