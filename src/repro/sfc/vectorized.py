"""Vectorized batch keying kernels for the space filling curves.

The stack computes curve keys in batches — all cubes of a decomposition,
all events of a ``publish_batch``, all anchor cells of a dominance plan.  The scalar :meth:`SpaceFillingCurve.key` path builds each
key with arbitrary-precision Python bit twiddling; at million-subscription
scale that loop dominates subscribe time.  This module provides numpy kernels
that key an entire batch with a constant number of vector operations per
coordinate bit:

* **Z order** — table-driven bit interleaving: each coordinate is split into
  small chunks and spread through a per-dimension lookup table (256 entries
  for order ≥ 8), so a batch of ``n`` points costs ``O(d · k/8)`` vector ops
  instead of ``n · d · k`` Python-level shifts.
* **Hilbert** — Skilling's transpose algorithm applied column-wise to the
  whole coordinate matrix (boolean masks replace the per-cell branches),
  followed by the Z interleave above.
* **Gray code** — the Z interleave followed by a vectorized Gray decode
  (prefix XOR via doubling shifts).

All kernels are *exact*: they return plain Python ints identical to the
scalar path.  They apply only when every key fits a ``uint64``
(``dims · order ≤ 63``); wider universes, non-integer input, or coordinates
outside the universe make the kernels return ``None`` so callers fall back to
the scalar path (which performs the canonical validation and raises the
canonical errors).  The per-curve pure-Python batch implementations take
those inputs, and are the reference the kernels are tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.bits import spread_bits

__all__ = [
    "MAX_VECTOR_KEY_BITS",
    "zorder_keys",
    "hilbert_keys",
    "gray_keys",
]

#: Keys wider than this cannot be vectorized (they must fit a ``uint64``
#: with all intermediate shifts well-defined).
MAX_VECTOR_KEY_BITS = 63

#: Lookup tables for the table-driven interleave, keyed by
#: ``(dims, chunk_bits)``; entry ``v`` is ``spread_bits(v, dims, 0)``.
_SPREAD_LUTS: Dict[Tuple[int, int], "np.ndarray"] = {}


def _coords(
    points: Sequence[Sequence[int]], dims: int, max_coordinate: int
) -> Optional["np.ndarray"]:
    """``(n, dims)`` uint64 coordinate matrix, or ``None`` when the batch
    cannot be vectorized (wrong shape, non-integer dtype, out-of-universe
    values).  ``None`` sends the caller down the scalar path, which validates
    per point and raises the canonical errors."""
    try:
        arr = np.asarray(points)
    except (TypeError, ValueError):
        return None
    if arr.ndim != 2 or arr.shape[1] != dims or arr.dtype.kind not in "iu":
        return None
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) > max_coordinate):
        return None
    return arr.astype(np.uint64, copy=False)


def _spread_lut(dims: int, chunk_bits: int) -> "np.ndarray":
    lut = _SPREAD_LUTS.get((dims, chunk_bits))
    if lut is None:
        lut = np.array(
            [spread_bits(v, dims, 0) for v in range(1 << chunk_bits)],
            dtype=np.uint64,
        )
        _SPREAD_LUTS[(dims, chunk_bits)] = lut
    return lut


def _interleave(coords: "np.ndarray", dims: int, order: int) -> "np.ndarray":
    """Morton-interleave the columns of ``coords`` (dimension 0 most
    significant within each bit position), chunked through lookup tables."""
    chunk_bits = min(8, order)
    lut = _spread_lut(dims, chunk_bits)
    mask = np.uint64((1 << chunk_bits) - 1)
    keys = np.zeros(len(coords), dtype=np.uint64)
    for dim in range(dims):
        column = coords[:, dim]
        shift = dims - 1 - dim
        for chunk in range(0, order, chunk_bits):
            part = (column >> np.uint64(chunk)) & mask
            keys |= lut[part] << np.uint64(chunk * dims + shift)
    return keys


def _as_ints(keys: "np.ndarray") -> List[int]:
    return [int(k) for k in keys]


def zorder_keys(
    points: Sequence[Sequence[int]], dims: int, order: int, max_coordinate: int
) -> Optional[List[int]]:
    """Batch Z-order keys, or ``None`` when the batch must take the scalar path."""
    if dims * order > MAX_VECTOR_KEY_BITS:
        return None
    coords = _coords(points, dims, max_coordinate)
    if coords is None:
        return None
    return _as_ints(_interleave(coords, dims, order))


def hilbert_keys(
    points: Sequence[Sequence[int]], dims: int, order: int, max_coordinate: int
) -> Optional[List[int]]:
    """Batch Hilbert keys (vectorized Skilling transpose), or ``None``."""
    if dims * order > MAX_VECTOR_KEY_BITS:
        return None
    coords = _coords(points, dims, max_coordinate)
    if coords is None:
        return None
    x = coords.copy()
    # Inverse undo (see sfc.hilbert._axes_to_transpose), applied column-wise:
    # the per-cell branch on bit q becomes a boolean mask over the batch.
    q = 1 << (order - 1)
    while q > 1:
        p = np.uint64(q - 1)
        uq = np.uint64(q)
        for i in range(dims):
            is_set = (x[:, i] & uq) != 0
            x[is_set, 0] ^= p
            t = (x[:, 0] ^ x[:, i]) & p
            t[is_set] = 0
            x[:, 0] ^= t
            x[:, i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, dims):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(len(x), dtype=np.uint64)
    q = 1 << (order - 1)
    while q > 1:
        is_set = (x[:, dims - 1] & np.uint64(q)) != 0
        t[is_set] ^= np.uint64(q - 1)
        q >>= 1
    x ^= t[:, None]
    return _as_ints(_interleave(x, dims, order))


def gray_keys(
    points: Sequence[Sequence[int]], dims: int, order: int, max_coordinate: int
) -> Optional[List[int]]:
    """Batch Gray-code keys (interleave + vectorized Gray decode), or ``None``."""
    if dims * order > MAX_VECTOR_KEY_BITS:
        return None
    coords = _coords(points, dims, max_coordinate)
    if coords is None:
        return None
    keys = _interleave(coords, dims, order)
    # gray_decode: bit j of the rank is the XOR of codeword bits j..msb;
    # doubling shifts compute the running XOR in O(log key_bits) vector ops.
    shift = 1
    while shift < dims * order:
        keys ^= keys >> np.uint64(shift)
        shift <<= 1
    return _as_ints(keys)
