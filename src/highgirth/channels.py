"""Memoryless channel models used by the simulators.

Two channels: symbol erasure at rate p (erased positions are reported
and their symbols zeroed), and binary symmetric crossing at rate p.
Draws come from a caller-supplied substream so a trial is replayable.

The Bhattacharyya parameter of the crossing channel, 2*sqrt(p*(1-p)),
is irrational for most p; ``bhattacharyya_upper`` returns a certified
rational upper bound tight to about 2**-60 so exact comparisons stay
exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import GF2, GFP, ColumnSet, FieldSpec, parse_probability
from .montecarlo import SubStream

__all__ = [
    "ChannelOutput",
    "mec_transmit",
    "bsc_transmit",
    "bhattacharyya_bsc",
    "bhattacharyya_upper",
]


@dataclass(frozen=True, eq=False)
class ChannelOutput:
    """What the receiver sees: symbols plus the flagged positions.

    For erasures, ``flagged`` lists the erased coordinates (their symbol
    slots hold 0 and carry no information).  For crossings, ``flagged``
    lists the flipped coordinates; a real receiver would not know them,
    they ride along for oracle checks.
    """

    field: FieldSpec
    symbols: object
    flagged: ColumnSet


def _flagged(mask: np.ndarray) -> ColumnSet:
    """1-based positions of the ones in a 0/1 mask."""
    return ColumnSet(tuple((np.flatnonzero(mask) + 1).tolist()))


def mec_transmit(field: FieldSpec, codeword, p, stream: SubStream) -> ChannelOutput:
    """Erase each coordinate independently with probability p."""
    pf = parse_probability(p, "p")
    mask = stream.bernoulli_mask(len(codeword), pf)
    erased = _flagged(mask)
    if field.kind in (GF2, GFP):
        out = np.array(codeword)
        out[mask.astype(bool)] = 0
    else:
        out = list(codeword)
        for i in erased:
            out[i - 1] = Fraction(0)
    return ChannelOutput(field, out, erased)


def bsc_transmit(codeword, p, stream: SubStream) -> ChannelOutput:
    """Flip each bit independently with probability p (gf2 only)."""
    pf = parse_probability(p, "p")
    cw = np.asarray(codeword, np.uint8)
    mask = stream.bernoulli_mask(cw.shape[0], pf)
    return ChannelOutput(FieldSpec.gf2(), cw ^ mask, _flagged(mask))


def bhattacharyya_bsc(p) -> float:
    """2*sqrt(p*(1-p)) as a float."""
    pf = parse_probability(p, "p")
    return 2.0 * math.sqrt(float(pf) * float(1 - pf))


def bhattacharyya_upper(p) -> Fraction:
    """Smallest convenient rational q >= 2*sqrt(p*(1-p)), clamped to 1.

    With z**2 = 4*p*(1-p) = a/b, sqrt(a/b) = sqrt(a*b*S**2) / (b*S) for
    any scale S; rounding the integer square root up at S = 2**64 gives
    a certified upper bound within 1/(b*2**64) of the true value.
    """
    pf = parse_probability(p, "p")
    z2 = 4 * pf * (1 - pf)
    a, b = z2.numerator, z2.denominator
    s = 1 << 64
    root = math.isqrt(a * b * s * s)
    if root * root < a * b * s * s:
        root += 1
    q = Fraction(root, b * s)
    return min(q, Fraction(1))
