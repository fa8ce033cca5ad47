"""NumPy reference of the incremental update (paper Section IV).

Applies the Category 1/2/3 keep rule of ``repro.core.incremental`` in NumPy
to the candidates of Algorithm 1's draw on the new graph
(``draw_choice_matrices`` at the batch's epoch, the kernel both engines
share), so the updated choice table and label table are bit-for-bit equal to
the Spark engine's (tested).
Labels are recomputed by the sequential recurrence and diffed to measure the
paper's η (number of labels needing update) — this is the measurement oracle
behind the Fig. 9 η table and the complexity-model validation, where running
the full Spark loop for every (batch size × seed) cell would be wasteful.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
import pandas as pd

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
) -> Tuple[RefState, Dict[str, int]]:
    """One incremental batch; returns (new state, η statistics)."""
    T, seed = state.n_iters, state.seed
    epoch = state.epoch + 1
    new_edges = apply_edits_pdf(state.edges, inserts, deletes)
    old_set = {tuple(r) for r in state.edges.to_numpy()}
    new_set = {tuple(r) for r in new_edges.to_numpy()}
    removed = old_set - new_set
    added = new_set - old_set
    if not (removed or added):
        # Like the Spark engine: the state, its epoch included, is unchanged.
        return state, dict.fromkeys(
            ("m_inserted", "m_deleted", "n_affected_vertices", "n_repicked",
             "n_value_changed", "eta"),
            0,
        )
    affected = {v for e in removed | added for v in e}
    g_new = build_graph(new_edges)
    old_index = {int(v): i for i, v in enumerate(state.g.ids)}

    # Candidates: Algorithm 1's draw on the new graph at this epoch. A row
    # keeps its old (src, pos) iff its vertex is unaffected, or its src is
    # still a neighbor and its candidate src is an old neighbor.
    src_new, pos_new = draw_choice_matrices(g_new, T, seed, epoch)
    keep = np.zeros((g_new.n, T), dtype=bool)
    # labels_init mirrors the Spark engine: old label where the row survived,
    # anchor placeholder (the vertex id) where it is new.
    labels_init = np.repeat(g_new.ids[:, None], T + 1, axis=1)
    for row, vid in enumerate(g_new.ids):
        old_row = old_index.get(int(vid))
        if old_row is None:
            continue  # new vertex: every row takes its candidate
        labels_init[row] = state.labels[old_row]
        src_old = state.src[old_row]
        if int(vid) in affected:
            new_nbrs = g_new.nbrs_flat[g_new.offsets[row] : g_new.offsets[row + 1]]
            old_nbrs = state.g.nbrs_flat[
                state.g.offsets[old_row] : state.g.offsets[old_row + 1]
            ]
            keep[row] = np.isin(src_old, new_nbrs) & np.isin(src_new[row], old_nbrs)
        else:
            keep[row] = True
        src_new[row] = np.where(keep[row], src_old, src_new[row])
        pos_new[row] = np.where(keep[row], state.pos[old_row], pos_new[row])
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
    }
    new_state = RefState(
        new_edges, g_new, src_new, pos_new, labels_new, T, seed, epoch
    )
    return new_state, stats
