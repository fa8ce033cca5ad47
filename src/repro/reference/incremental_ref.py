"""NumPy reference of the incremental update (paper Section IV).

Applies the Category 1/2/3 keep rule of ``repro.core.incremental``
(``keep_rule``) to the candidates of Algorithm 1's draw on the new graph
(``draw_choice_matrices`` at the batch's epoch); both are kernels the two
engines share, so the updated choice table and label table are bit-for-bit
equal to the Spark engine's (tested).
Labels are recomputed by the sequential recurrence and diffed to measure the
paper's η (number of labels needing update), and Correction Propagation's
wave sizes are replayed on the updated choice matrices
(``cascade_deltas``) — this is the measurement oracle
behind the Fig. 9 η table and the complexity-model validation, where running
the full Spark loop for every (batch size × seed) cell would be wasteful.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd

from repro.core.incremental import keep_rule
from repro.reference.rslpa_ref import (
    RefGraph,
    build_graph,
    canon_pdf,
    draw_choice_matrices,
    resolve_label_matrix,
)


def apply_edits_pdf(
    edges: pd.DataFrame,
    inserts: pd.DataFrame | None,
    deletes: pd.DataFrame | None,
) -> pd.DataFrame:
    """Set-semantics batch application, matching ``repro.core.graph``."""
    cur = {tuple(r) for r in canon_pdf(edges).to_numpy()}
    if inserts is not None and len(inserts):
        cur |= {tuple(r) for r in canon_pdf(inserts).to_numpy()}
    if deletes is not None and len(deletes):
        cur -= {tuple(r) for r in canon_pdf(deletes).to_numpy()}
    arr = np.array(sorted(cur), dtype=np.int64).reshape(-1, 2)
    return pd.DataFrame({"src": arr[:, 0], "dst": arr[:, 1]})


def cascade_deltas(
    g: RefGraph, src: np.ndarray, pos: np.ndarray, repicked: np.ndarray
) -> List[int]:
    """The size of each Correction Propagation wave on the updated ``(n, T)``
    choice matrices: wave 0 is the ``repicked`` rows, and each next wave is
    the rows whose ``(src, pos)`` is a row of the last wave with ``t < T``."""
    n, T = src.shape
    src_row = np.searchsorted(g.ids, src)
    deltas = []
    wave = repicked
    while wave.any():
        deltas.append(int(wave.sum()))
        # sends[v, t]: row (v, t) sends; column j of a wave is t = j + 1,
        # and rows at t = T have no receivers.
        sends = np.zeros((n, T + 1), dtype=bool)
        sends[:, 1:T] = wave[:, : T - 1]
        wave = sends[src_row, pos]
    return deltas


@dataclass
class RefState:
    """Reference-engine mirror of ``repro.core.rslpa.RslpaState``."""

    edges: pd.DataFrame  # canonical
    g: RefGraph
    src: np.ndarray  # (n, T)
    pos: np.ndarray  # (n, T)
    labels: np.ndarray  # (n, T+1)
    n_iters: int
    seed: int
    epoch: int  # bumps once per batch that changes an edge


def ref_run_static(edges: pd.DataFrame, n_iters: int, seed: int) -> RefState:
    """Algorithm 1 from scratch (reference engine)."""
    edges = canon_pdf(edges)
    g = build_graph(edges)
    src, pos = draw_choice_matrices(g, n_iters, seed, epoch=0)
    labels = resolve_label_matrix(g, src, pos)
    return RefState(edges, g, src, pos, labels, n_iters, seed, 0)


def ref_apply_batch(
    state: RefState,
    inserts: pd.DataFrame | None,
    deletes: pd.DataFrame | None,
) -> Tuple[RefState, Dict[str, int | List[int]]]:
    """One incremental batch; returns (new state, its ``UpdateStats`` counts
    by name, η and the wave sizes included)."""
    T, seed = state.n_iters, state.seed
    epoch = state.epoch + 1
    new_edges = apply_edits_pdf(state.edges, inserts, deletes)
    old_set = {tuple(r) for r in state.edges.to_numpy()}
    new_set = {tuple(r) for r in new_edges.to_numpy()}
    removed = old_set - new_set
    added = new_set - old_set
    if not (removed or added):
        # Like the Spark engine: the state, its epoch included, is unchanged.
        stats = dict.fromkeys(
            ("m_inserted", "m_deleted", "n_affected_vertices", "n_repicked",
             "n_value_changed", "eta"),
            0,
        )
        return state, {**stats, "round_deltas": []}
    affected = np.fromiter(
        {v for e in removed | added for v in e}, dtype=np.int64
    )
    g_new = build_graph(new_edges)
    old_g = state.g
    at = np.minimum(np.searchsorted(old_g.ids, g_new.ids), old_g.n - 1)
    present = old_g.ids[at] == g_new.ids
    old_row = at[present]

    # Candidates: Algorithm 1's draw on the new graph at this epoch. A row
    # keeps its old (src, pos) iff its vertex is unaffected, or its src is
    # still a neighbor and its candidate src is an old neighbor
    # (``keep_rule``, the Spark engine's kernel). A new vertex keeps nothing.
    src_new, pos_new = draw_choice_matrices(g_new, T, seed, epoch)
    keep = np.zeros((g_new.n, T), dtype=bool)
    keep[present] = True
    sel = np.flatnonzero(present & np.isin(g_new.ids, affected))
    sel_old = at[sel]
    keep[sel] = keep_rule(
        state.src[sel_old].ravel(),
        src_new[sel].ravel(),
        np.repeat(sel, T),
        (g_new.nbrs_flat, g_new.offsets),
        np.repeat(sel_old, T),
        (old_g.nbrs_flat, old_g.offsets),
    ).reshape(-1, T)
    src_new[present] = np.where(keep[present], state.src[old_row], src_new[present])
    pos_new[present] = np.where(keep[present], state.pos[old_row], pos_new[present])
    # labels_init mirrors the Spark engine: old label where the row survived,
    # anchor placeholder (the vertex id) where it is new.
    labels_init = np.repeat(g_new.ids[:, None], T + 1, axis=1)
    labels_init[present] = state.labels[old_row]
    repicked = ~keep

    labels_new = resolve_label_matrix(g_new, src_new, pos_new)
    value_changed = labels_new != labels_init
    eta = int(np.count_nonzero(repicked | value_changed[:, 1:]))
    stats = {
        "m_inserted": len(added),
        "m_deleted": len(removed),
        "n_affected_vertices": len(affected),
        "n_repicked": int(repicked.sum()),
        "n_value_changed": int(value_changed.sum()),
        "eta": eta,
        "round_deltas": cascade_deltas(g_new, src_new, pos_new, repicked),
    }
    new_state = RefState(
        new_edges, g_new, src_new, pos_new, labels_new, T, seed, epoch
    )
    return new_state, stats
