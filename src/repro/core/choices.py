"""Drawing the rSLPA choice table (Algorithm 1's random state).

For every vertex ``i`` with degree ≥ 1 and every iteration ``t ∈ [1..T]``:

* ``src_i^t`` = uniformly picked neighbor — realized as the
  ``h mod deg_i``-th entry of the sorted neighbor array;
* ``pos_i^t`` = uniform position in ``[0, t-1]``.

Labels are *not* drawn here; they are fully determined by this table
(see ``repro.core.resolve``). The draw is a pure function of
``(seed, epoch, i, t)`` via ``repro.core.rand``, so the Spark path
(``draw_choices``, vectorized ``mapInPandas``) and the NumPy reference path
(``draw_choices_arrays``) produce identical tables.

Degree-0 vertices get no rows: they cannot pick (Algorithm 1 requires a
neighbor) and nobody can pick from them; their label sequence stays ``(i)``.
"""
from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.core import rand

CHOICE_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("t", T.IntegerType(), False),
        T.StructField("src", T.LongType(), False),
        T.StructField("pos", T.IntegerType(), False),
    ]
)


def draw_choices_arrays(
    ids: np.ndarray,
    nbrs_flat: np.ndarray,
    offsets: np.ndarray,
    n_iters: int,
    seed: int,
    epoch: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized draw for a batch of vertices (shared Spark/NumPy kernel).

    ``nbrs_flat`` is the concatenation of each vertex's sorted neighbor
    array; ``offsets[v]`` is the start of vertex ``v``'s slice and
    ``offsets[v+1]`` its end (CSR layout). Returns flat arrays
    ``(id, t, src, pos)`` with ``len = len(ids) * n_iters``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    deg = np.diff(offsets).astype(np.int64)
    n = len(ids)
    id_rep = np.repeat(ids, n_iters)
    t_rep = np.tile(np.arange(1, n_iters + 1, dtype=np.int64), n)
    deg_rep = np.repeat(deg, n_iters)
    start_rep = np.repeat(offsets[:-1].astype(np.int64), n_iters)
    src_idx = rand.hash_mod(seed, rand.SRC, deg_rep, epoch, id_rep, t_rep)
    src = np.asarray(nbrs_flat, dtype=np.int64)[start_rep + src_idx]
    pos = rand.hash_mod(seed, rand.POS, t_rep, epoch, id_rep, t_rep)
    return id_rep, t_rep, src, pos


def csr(nbrs_col: pd.Series) -> Tuple[np.ndarray, np.ndarray]:
    """A column of neighbor arrays as ``(flat, offsets)`` (CSR layout); a
    None array is an empty row."""
    arrays = [np.asarray([] if a is None else a, dtype=np.int64) for a in nbrs_col]
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in arrays], out=offsets[1:])
    return np.concatenate([np.empty(0, dtype=np.int64), *arrays]), offsets


def draw_choices(
    adjacency: DataFrame, n_iters: int, seed: int, epoch: int = 0
) -> DataFrame:
    """Spark choice table from an ``adjacency`` frame (``id``, ``nbrs``).

    One output row per (vertex, iteration): ``(id, t, src, pos)``.
    """

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            pdf = pdf[pdf["nbrs"].map(len) > 0]
            if pdf.empty:
                continue
            flat, offsets = csr(pdf["nbrs"])
            i, t, s, p = draw_choices_arrays(
                pdf["id"].to_numpy(dtype=np.int64),
                flat,
                offsets,
                n_iters,
                seed,
                epoch,
            )
            yield pd.DataFrame(
                {
                    "id": i,
                    "t": t.astype(np.int32),
                    "src": s,
                    "pos": p.astype(np.int32),
                }
            )

    return adjacency.mapInPandas(gen, schema=CHOICE_SCHEMA)

