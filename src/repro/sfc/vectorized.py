"""Vectorized batch keying kernel for the Z curve.

The stack computes Z keys in batches — all cubes of a decomposition, all
events of a ``publish_batch``, all anchor cells of a dominance plan.  The
scalar :meth:`SpaceFillingCurve.key` path builds each key with
arbitrary-precision Python bit twiddling; at million-subscription scale that
loop dominates subscribe time.  :func:`zorder_keys` keys an entire batch with
a constant number of vector operations per coordinate bit: table-driven bit
interleaving, each coordinate split into small chunks and spread through a
per-dimension lookup table (256 entries for order ≥ 8), so a batch of ``n``
points costs ``O(d · k/8)`` vector ops instead of ``n · d · k`` Python-level
shifts.  (The Hilbert and Gray curves key only Fig. 1-sized batches, through
their own pure-Python loops.)

The kernel is *exact*: it returns plain Python ints identical to the scalar
path.  It applies only when every key fits a ``uint64`` (``dims · order ≤
63``); wider universes, non-integer input, or coordinates outside the
universe make it return ``None`` so callers fall back to the scalar path
(which performs the canonical validation and raises the canonical errors).
The pure-Python batch loop of :meth:`ZOrderCurve.keys
<repro.sfc.zorder.ZOrderCurve.keys>` takes those inputs, and is the
reference the kernel is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.bits import spread_bits

__all__ = [
    "MAX_VECTOR_KEY_BITS",
    "zorder_keys",
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
