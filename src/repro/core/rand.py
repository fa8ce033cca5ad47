"""Deterministic counter-based randomness shared by Spark and NumPy engines.

The whole random state of rSLPA (Algorithm 1) is the set of independent
uniform draws ``(src_i^t, pos_i^t)``. Instead of a stateful RNG we derive
every draw from a splitmix64-style hash of ``(seed, purpose, epoch, i, t)``:

* the Spark engine (vectorized inside ``mapInPandas``) and the NumPy
  reference engine consume *identical* draws, so their outputs are
  bit-identical — the strongest possible cross-check;
* the paper's device "pretend we use the same series of random numbers to
  perform label propagation on the new graph" (Section IV-A) is realized
  exactly: unchanged ``(i, t)`` rows reproduce their old draw, and the
  incremental update draws its candidates with Algorithm 1's own kernel at
  a fresh ``epoch`` counter.

All arithmetic is modulo 2^64 on ``np.uint64`` arrays; NumPy wraps unsigned
integer overflow silently for array operands, which is exactly what we want.
"""
from __future__ import annotations

import numpy as np

# splitmix64 constants (Steele, Lea & Flood 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

# Purpose tags keep draw streams for different decisions independent.
SRC = 0x5243  # "src": neighbor pick in Algorithm 1
POS = 0x504F  # "pos": position pick in Algorithm 1
TIE = 0x5449  # SLPA plurality tie-break
SEND = 0x534E  # SLPA speaker's label pick per (listener, speaker)


def _mix(x: np.ndarray) -> np.ndarray:
    """Finalizer of splitmix64: bijective avalanche mix of a uint64 array."""
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the point
        x = x.astype(np.uint64, copy=True)
        x ^= x >> _S30
        x *= _M1
        x ^= x >> _S27
        x *= _M2
        x ^= x >> _S31
    return x


def hash_u64(seed: int, purpose: int, *keys) -> np.ndarray:
    """Hash ``(seed, purpose, keys...)`` to uniform uint64, vectorized.

    ``keys`` are ints or integer ndarrays (broadcast together). Each key is
    absorbed with a distinct round constant so (a, b) and (b, a) collide with
    probability ~2^-64.
    """
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the point
        arrs = [np.asarray(k, dtype=np.uint64) for k in keys]
        shape = np.broadcast_shapes(*[a.shape for a in arrs]) if arrs else ()
        init = (np.uint64(seed) * _GAMMA) + np.uint64(purpose)
        h = _mix(np.full(shape, init, dtype=np.uint64))
        for i, a in enumerate(arrs):
            h = _mix(h ^ (a + np.uint64(i + 1) * _GAMMA))
    return h


def hash_mod(seed: int, purpose: int, mod, *keys) -> np.ndarray:
    """Uniform integer in ``[0, mod)`` per element (``mod`` may be an array).

    The modulo bias is < mod / 2^64, i.e. negligible for any graph degree or
    iteration count this repo can hold in memory.
    """
    m = np.asarray(mod, dtype=np.uint64)
    return (hash_u64(seed, purpose, *keys) % np.maximum(m, np.uint64(1))).astype(
        np.int64
    )

