"""Square M-QAM constellations with Gray bit mapping.

The constellation is normalized to unit average symbol energy: with
a = sqrt(6/(M-1)) the per-dimension amplitude levels are
{+-a/2, +-3a/2, ..., +-(sqrt(M)-1)a/2}.  Bits map Gray-coded and
independently onto the I and Q level indices (I bits first, MSB first).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


def _gray_decode(g, nbits: int):
    b = np.asarray(g).copy()
    shift = 1
    while shift < nbits:
        b ^= b >> shift
        shift <<= 1
    return b


@dataclass(frozen=True)
class ConstellationSpec:
    """QAM order M (perfect square, power of 4) and derived normalization."""

    m: int

    def __post_init__(self):
        if self.m < 4:
            raise ValidationError(f"M must be 4, 16, 64, ... got {self.m}")
        side = int(round(self.m**0.5))
        if side * side != self.m or (side & (side - 1)) != 0:
            raise ValidationError(f"M must be 4, 16, 64, ... got {self.m}")

    @cached_property
    def a(self) -> float:
        return float(np.sqrt(6.0 / (self.m - 1)))

    @cached_property
    def side(self) -> int:
        return int(round(self.m**0.5))

    @cached_property
    def bits_per_symbol(self) -> int:
        return int(round(np.log2(self.m)))

    @cached_property
    def levels(self) -> np.ndarray:
        return _level_values(np.arange(self.side), self)

    @cached_property
    def alphabet(self) -> np.ndarray:
        """All M symbols indexed by their bit pattern read as an integer."""
        bps = self.bits_per_symbol
        half = bps // 2
        codes = np.arange(self.m)
        gi = _gray_decode(codes >> half, half)
        gq = _gray_decode(codes & ((1 << half) - 1), half)
        return self.levels[gi] + 1j * self.levels[gq]


def _level_values(idx, spec: ConstellationSpec, out=None) -> np.ndarray:
    """The levels (2 i - (side - 1)) a/2 of the level indices i in idx,
    written to out (a float array of idx's shape) or to a new array: the
    values of spec.levels[idx], without the intp copy of idx that indexing
    makes."""
    t = np.multiply(idx, 2.0, out=out)
    t -= spec.side - 1
    t *= spec.a / 2
    return t


def _level_index_pairs(bits: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """bits shape (..., bits_per_symbol) -> level indices (..., 2) of the I
    and Q halves, in the smallest unsigned type that holds side - 1.

    Each half, read MSB first, is the Gray label of its level index.
    """
    half = spec.bits_per_symbol // 2
    planes = bits.astype(np.min_scalar_type(spec.side - 1))
    planes = planes.reshape(*bits.shape[:-1], 2, half)
    g = planes[..., 0].copy()
    for j in range(1, half):  # shifted up bit by bit
        g <<= 1
        g |= planes[..., j]
    return _gray_decode(g, half)


def map_bits(bits: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """Gray-map bit blocks to symbols; bits shape (..., bits_per_symbol)."""
    bits = np.asarray(bits)
    bps = spec.bits_per_symbol
    if bits.shape[-1] != bps:
        raise ValidationError(f"need {bps} bits per symbol, got {bits.shape[-1]}")
    levels = spec.levels[_level_index_pairs(bits, spec)]
    return levels[..., 0] + 1j * levels[..., 1]


def modulate(bits, spec: ConstellationSpec, n_t: int) -> np.ndarray:
    """Map n_t * log2(M) bits to a length-n_t symbol vector."""
    bits = np.asarray(bits).ravel()
    bps = spec.bits_per_symbol
    if bits.shape[0] != n_t * bps:
        raise ValidationError(
            f"need {n_t * bps} bits for {n_t} symbols, got {bits.shape[0]}"
        )
    return map_bits(bits.reshape(n_t, bps), spec)
