"""Bit-level utilities used throughout the reproduction.

The paper (Shen & Tirthapura) manipulates side lengths and cell coordinates at
the level of their binary representations.  This module collects those
primitives so that the rest of the code can speak the paper's language
directly:

* ``bit_length(x)`` — the paper's ``b(x)``: number of bits in the binary
  representation of ``x`` with a leading one (``b(9) = 4``).
* ``truncate_to_msb(x, m)`` — the paper's ``t(x, m)``: keep the ``m`` most
  significant bits of ``x`` and zero the rest.
* ``suffix_from(x, i)`` — the paper's ``S_i(x)``: keep only the bits of ``x``
  whose index (from the least significant bit, 0-based) is at least ``i``.
* ``bit_at(x, j)`` — the paper's ``x_j``: the ``j``-th bit of ``x``.
* ``interleave_bits`` / ``deinterleave_bits`` — the Z-order (Morton) key
  construction: the key of a cell is formed by interleaving the bits of its
  coordinates, starting from dimension 1.

All functions operate on plain Python integers, which are arbitrary precision,
so no universe size limit is imposed here; the limits live in
:mod:`repro.geometry.universe`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

__all__ = [
    "bit_length",
    "bit_at",
    "truncate_to_msb",
    "suffix_from",
    "interleave_bits",
    "deinterleave_bits",
    "spread_bits",
    "ceil_log2",
    "truncate_vector",
    "suffix_vector",
    "gray_encode",
    "gray_decode",
]


def bit_length(x: int) -> int:
    """Return ``b(x)``: the number of bits in the binary representation of ``x``.

    The most significant bit is a one, so ``b(9) = 4`` (``1001``) and
    ``b(1) = 1``.  ``b(0)`` is defined as 0, matching Python's
    ``int.bit_length``.

    >>> bit_length(9)
    4
    >>> bit_length(1)
    1
    >>> bit_length(0)
    0
    """
    if x < 0:
        raise ValueError(f"bit_length is defined for non-negative integers, got {x}")
    return x.bit_length()


def bit_at(x: int, j: int) -> int:
    """Return the ``j``-th bit of ``x`` (0-based from the least significant bit).

    This is the paper's ``x_j`` notation.

    >>> bit_at(0b1010, 1)
    1
    >>> bit_at(0b1010, 0)
    0
    """
    if j < 0:
        raise ValueError(f"bit index must be non-negative, got {j}")
    return (x >> j) & 1


def truncate_to_msb(x: int, m: int) -> int:
    """Return ``t(x, m)``: retain the ``m`` most significant bits of ``x``, zero the rest.

    For ``m >= b(x)`` the value is returned unchanged.  ``m`` must be at least 1
    for a positive ``x`` (truncating to zero bits would produce an empty side).

    >>> truncate_to_msb(0b110101, 3)
    48
    >>> bin(truncate_to_msb(0b110101, 3))
    '0b110000'
    >>> truncate_to_msb(7, 10)
    7
    """
    if x < 0:
        raise ValueError(f"truncate_to_msb requires a non-negative integer, got {x}")
    if m <= 0:
        raise ValueError(f"number of retained bits must be positive, got {m}")
    b = x.bit_length()
    if m >= b:
        return x
    drop = b - m
    return (x >> drop) << drop


def suffix_from(x: int, i: int) -> int:
    """Return ``S_i(x)``: keep only bits of ``x`` at positions ``>= i``, zero the rest.

    Positions are 0-based from the least significant bit, so ``S_0(x) = x``.

    >>> suffix_from(0b110101, 2)
    52
    >>> suffix_from(0b110101, 0)
    53
    >>> suffix_from(5, 10)
    0
    """
    if x < 0:
        raise ValueError(f"suffix_from requires a non-negative integer, got {x}")
    if i < 0:
        raise ValueError(f"bit position must be non-negative, got {i}")
    return (x >> i) << i


def truncate_vector(lengths: Sequence[int], m: int) -> Tuple[int, ...]:
    """Apply :func:`truncate_to_msb` to each element of a vector (the paper's ``t(ℓ, m)``)."""
    return tuple(truncate_to_msb(v, m) for v in lengths)


def suffix_vector(lengths: Sequence[int], i: int) -> Tuple[int, ...]:
    """Apply :func:`suffix_from` to each element of a vector (the paper's ``S_i(ℓ)``)."""
    return tuple(suffix_from(v, i) for v in lengths)


def ceil_log2(x: int) -> int:
    """Return ``⌈log2 x⌉`` for a positive integer ``x``."""
    if x <= 0:
        raise ValueError(f"ceil_log2 requires a positive integer, got {x}")
    return (x - 1).bit_length() if x > 1 else 0


#: Per dimension count ``d``: the 256 bytes Morton-spread for ``d`` dimensions,
#: entry ``v`` being ``spread_bits(v, d, 0)`` (built on first use).
_SPREAD_BYTE: Dict[int, Tuple[int, ...]] = {}


def interleave_bits(coords: Sequence[int], bits: int) -> int:
    """Interleave the bits of ``coords`` into a single Morton (Z-order) key.

    ``coords`` is a point ``(x_1, ..., x_d)``; each coordinate is treated as a
    ``bits``-bit binary number.  Following the paper's convention, bits are
    taken from the most significant position downwards, and within one bit
    position dimension 1 contributes first.  The example from Section 5 of the
    paper:

    >>> interleave_bits((0b010, 0b011), 3)
    13

    (cell ``a`` with coordinates ``(010, 011)`` has key ``001101 = 13``).

    Raises ``ValueError`` if any coordinate does not fit in ``bits`` bits.

    Every scalar curve key and covering key ends here, so the key is built a
    byte at a time rather than a bit at a time: byte ``b`` of coordinate ``i``
    (of ``d``) is looked up in the ``d``-dimension spread table and lands at
    bit ``8·b·d + d − 1 − i``.  Keys of any width come out the same as from
    the bit loop.
    """
    if bits < 0:
        raise ValueError(f"bits must be non-negative, got {bits}")
    dims = len(coords)
    table = _SPREAD_BYTE.get(dims)
    if table is None:
        table = _SPREAD_BYTE[dims] = tuple(spread_bits(v, dims, 0) for v in range(256))
    stride = 8 * dims
    key = 0
    shift = dims
    for x in coords:
        if x < 0 or x.bit_length() > bits:
            raise ValueError(f"coordinate {x} does not fit in {bits} bits")
        shift -= 1
        offset = shift
        while x:
            key |= table[x & 255] << offset
            x >>= 8
            offset += stride
    return key


def deinterleave_bits(key: int, dims: int, bits: int) -> Tuple[int, ...]:
    """Invert :func:`interleave_bits`.

    >>> deinterleave_bits(13, 2, 3)
    (2, 3)
    """
    if dims <= 0:
        raise ValueError(f"dims must be positive, got {dims}")
    if bits < 0:
        raise ValueError(f"bits must be non-negative, got {bits}")
    if key < 0 or key.bit_length() > dims * bits:
        raise ValueError(f"key {key} does not fit in {dims * bits} bits")
    coords = [0] * dims
    for level in range(bits):
        for dim in range(dims - 1, -1, -1):
            coords[dim] |= (key & 1) << level
            key >>= 1
    return tuple(coords)


def spread_bits(value: int, dims: int, shift: int) -> int:
    """Move bit ``j`` of ``value`` to position ``j * dims + shift`` (Morton spreading).

    This is the per-coordinate half of :func:`interleave_bits`: OR-ing the
    spread forms of all coordinates of a point — dimension ``i`` contributing
    with ``shift = dims − 1 − i``, matching the "dimension 1 first" key
    convention — reproduces the interleaved key.  Exposed separately so batch
    key construction can cache spread coordinate values.

    >>> spread_bits(0b011, 2, 0) | spread_bits(0b010, 2, 1)
    13
    """
    if value < 0:
        raise ValueError(f"spread_bits requires a non-negative integer, got {value}")
    result = 0
    j = 0
    while value:
        if value & 1:
            result |= 1 << (j * dims + shift)
        value >>= 1
        j += 1
    return result


def gray_encode(x: int) -> int:
    """Return the binary-reflected Gray code of ``x``.

    >>> [gray_encode(i) for i in range(4)]
    [0, 1, 3, 2]
    """
    if x < 0:
        raise ValueError(f"gray_encode requires a non-negative integer, got {x}")
    return x ^ (x >> 1)


def gray_decode(g: int) -> int:
    """Invert :func:`gray_encode`.

    >>> [gray_decode(gray_encode(i)) for i in range(8)]
    [0, 1, 2, 3, 4, 5, 6, 7]
    """
    if g < 0:
        raise ValueError(f"gray_decode requires a non-negative integer, got {g}")
    x = 0
    while g:
        x ^= g
        g >>= 1
    return x
