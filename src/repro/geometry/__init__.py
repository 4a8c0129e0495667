"""Geometric primitives: bits, universes, rectangles and the dominance transform."""

from .bits import (
    bit_at,
    bit_length,
    ceil_log2,
    deinterleave_bits,
    gray_decode,
    gray_encode,
    interleave_bits,
    suffix_from,
    suffix_vector,
    truncate_to_msb,
    truncate_vector,
)
from .rect import ExtremalRectangle, Rectangle, StandardCube, aspect_ratio
from .transform import DominanceTransform, dominates, ranges_cover
from .universe import Universe, pack_box, pack_point, packed_guard, unpack_box

__all__ = [
    "bit_at",
    "bit_length",
    "ceil_log2",
    "deinterleave_bits",
    "gray_decode",
    "gray_encode",
    "interleave_bits",
    "suffix_from",
    "suffix_vector",
    "truncate_to_msb",
    "truncate_vector",
    "ExtremalRectangle",
    "Rectangle",
    "StandardCube",
    "aspect_ratio",
    "DominanceTransform",
    "dominates",
    "ranges_cover",
    "Universe",
    "pack_box",
    "pack_point",
    "packed_guard",
    "unpack_box",
]
