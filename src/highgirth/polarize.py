"""Rank-profile recursion, row selection, and the matching reliability sums.

One recursion drives everything here.  A scalar x in [0, 1] splits into
ell(x) = 2x - x**2 and rr(x) = x**2; after log2(n) doubling levels a
start value s becomes a length-n profile.  Read as per-row independence
probabilities of the Sierpinski transform under Bernoulli(s) column
sampling, the profile says which rows to keep for a check matrix; read
as Bhattacharyya parameters, the same leaf values sum to an erasure
decoding failure bound.  The profile is a martingale: the exact leaf
values always sum to n * s.

Exact leaves are polynomials of degree up to n in s, so their bit size
doubles per level.  They are computed on integer numerators over the
shared denominator b**(2**k) of a level-k value, s = a/b.  The float
profile tracks the leaves to within 2**(levels-52) absolute, which is too
coarse for the paper's threshold 1 - 2**-ceil(n**0.49) once n > 2048.
Fast selection therefore tracks, per leaf, the small tail (v or 1 - v)
as a certified interval on its log2.  One branch squares that tail, which
doubles the log exactly; the other moves it by a rounded transcendental
step that the interval is widened to cover.  This keeps relative
precision where absolute precision runs out.  Only leaves whose interval
straddles the decision (or whose side is undecided near 1/2) are
recomputed exactly, so fast selection agrees with exact selection.

Every exact leaf set, whether the whole profile, one leaf, fast
selection's unsure leaves or a Bhattacharyya sum's selected rows, comes
from one walk down the tree (``_leaf_numerators``).  Level by level it
computes only the ancestors of the requested leaves, each node once with
one squaring, so leaves that share a prefix share its products.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import ColumnSet, _as_column_set, _read_text, _write_text, parse_probability

__all__ = [
    "ell",
    "rr",
    "rank_profile",
    "rank_profile_float",
    "profile_leaf",
    "RankProfile",
    "compute_profile",
    "default_threshold_exponent",
    "default_threshold",
    "SelectionSpec",
    "select_rows",
    "select_rows_fast",
    "polarization_fractions",
    "bhattacharyya_sum",
    "write_profile_csv",
    "read_profile_csv",
]


def ell(x) -> Fraction:
    """Upper branch 2x - x**2 = 1 - (1-x)**2 of an exact x in [0, 1]
    (``parse_probability``: a Fraction, int or string, never a float);
    increases toward 1."""
    x = parse_probability(x, "x")
    return 2 * x - x * x


def rr(x) -> Fraction:
    """Lower branch x**2 of an exact x in [0, 1], read as ``ell`` reads
    it; decreases toward 0."""
    x = parse_probability(x, "x")
    return x * x


def _levels(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    return n.bit_length() - 1


def _coprime_fraction_maker():
    """Fraction(a, d) for a, d already in lowest terms with d > 0, without
    the gcd: ``Fraction._from_coprime_ints`` (Python 3.12 and later), else
    ``Fraction(a, d, _normalize=False)`` (3.10 and 3.11), else the public
    constructor.  Both shortcuts are private, so probe them once here."""
    if hasattr(Fraction, "_from_coprime_ints"):
        return Fraction._from_coprime_ints
    try:
        Fraction(1, 1, _normalize=False)
    except TypeError:
        return Fraction
    return functools.partial(Fraction, _normalize=False)


# every exact leaf of a reduced s = a/b is in lowest terms: modulo a prime
# dividing b, a(2D - a) is -a**2 and a*a is a**2, and neither is 0
_leaf_fraction = _coprime_fraction_maker()


def _leaf_numerators(n: int, s, leaves) -> tuple[list[int], int]:
    """(nums, den): the exact profile of s at 0-based leaf leaves[t] is
    nums[t]/den, for distinct leaves in ascending order.

    Every leaf shares den = b**n for s = a/b, so comparing numerators
    compares leaves.  The walk goes down the tree one level at a time and
    computes only the ancestors of the requested leaves, each node once
    with one squaring: a/D -> (2aD - a**2)/D**2 and a**2/D**2, where
    2aD - a**2 is D**2 - (D - a)**2, and a squaring costs less than the
    product.  Leaves that share a prefix share its products.  Every level above the deepest one whose nodes are all
    wanted (all of them when every leaf is) is a full level, taken in one
    paired comprehension with no bookkeeping.
    """
    levels = _levels(n)
    s = parse_probability(s, "s")
    if not leaves:
        return [], s.denominator**n
    # wanted[k]: the ancestors at depth levels - k, ascending; stops at the
    # first depth where every node is wanted (the root at the latest)
    wanted = [leaves]
    while len(wanted[-1]) < 1 << (levels + 1 - len(wanted)):
        wanted.append(list(dict.fromkeys(c >> 1 for c in wanted[-1])))
    nums, den = [s.numerator], s.denominator
    for _ in range(levels + 1 - len(wanted)):
        sq = den * den
        nums = [c for a in nums for b in (den - a,) for c in (sq - b * b, a * a)]
        den = sq
    for want in reversed(wanted[:-1]):
        sq = den * den
        # the parents of ``want`` are nums, in order: step to the next one
        # each time the parent index changes
        out, parent, vals = [], -1, iter(nums)
        for c in want:
            if c >> 1 != parent:
                parent, a = c >> 1, next(vals)
            if c & 1:
                out.append(a * a)
            else:
                b = den - a
                out.append(sq - b * b)
        nums, den = out, sq
    return nums, den


def rank_profile(n: int, s) -> tuple[Fraction, ...]:
    """Exact length-n profile of s under the branch recursion.

    Leaf order: the binary expansion of the 0-based index, most
    significant bit first, spells the branch path (0 = ell, 1 = rr).
    """
    nums, den = _leaf_numerators(n, s, range(n))
    # pop from the back so each numerator is freed once its Fraction exists
    nums.reverse()
    return tuple(_leaf_fraction(nums.pop(), den) for _ in range(len(nums)))


def rank_profile_float(n: int, s) -> np.ndarray:
    """Float64 profile of an exact rate s (a float is refused, as
    everywhere); absolute leaf error below 2**(log2(n) - 52)."""
    levels = _levels(n)
    v = np.array([float(parse_probability(s, "s"))])
    for _ in range(levels):
        nxt = np.empty(2 * v.shape[0])
        nxt[0::2] = v * (2.0 - v)
        nxt[1::2] = v * v
        v = nxt
    return v


def profile_leaf(n: int, i: int, s) -> Fraction:
    """Exact profile value at 1-based leaf i, without the other leaves:
    the one-leaf walk, one root-to-leaf chain of squarings."""
    if not 1 <= i <= n:
        raise ValueError(f"leaf index {i} out of range for n={n}")
    (a,), den = _leaf_numerators(n, s, [i - 1])
    return _leaf_fraction(a, den)


def _above(a: int, den: int, t: Fraction) -> bool:
    """a/den > t, without building the Fraction (den > 0)."""
    return a * t.denominator > t.numerator * den


@dataclass(frozen=True)
class RankProfile:
    """A computed profile: exact Fraction leaves or float64 leaves."""

    n: int
    s: Fraction
    values: tuple
    exact: bool

    def leaf(self, i: int):
        """1-based leaf access."""
        if not 1 <= i <= self.n:
            raise IndexError(f"leaf index {i} out of range")
        return self.values[i - 1]

    def total(self):
        return sum(self.values)


def compute_profile(n: int, s, exact: bool = True) -> RankProfile:
    sf = parse_probability(s, "s")
    if exact:
        return RankProfile(n, sf, rank_profile(n, sf), True)
    return RankProfile(n, sf, tuple(float(v) for v in rank_profile_float(n, sf)), False)


# ---------------------------------------------------------------------------
# default threshold: 1 - 2**-ceil(n**0.49)


def default_threshold_exponent(n: int) -> int:
    """ceil(n ** (49/100)), computed exactly in integers."""
    _levels(n)  # validates power of two
    target = n**49
    e = max(1, int(n**0.49))
    while e**100 < target:
        e += 1
    while e > 1 and (e - 1) ** 100 >= target:
        e -= 1
    return e


def default_threshold(n: int) -> Fraction:
    """Keep a row when its profile value exceeds 1 - 2**-ceil(n**0.49)."""
    return 1 - Fraction(1, 1 << default_threshold_exponent(n))


# ---------------------------------------------------------------------------
# row selection


@dataclass(frozen=True)
class SelectionSpec:
    """How to pick rows from a profile.

    mode "auto": threshold rule with the default threshold for n.
    mode "threshold": keep rows with value strictly above the threshold.
    mode "top": keep the count largest rows (ties to the smaller index).

    Every rule on a spec is checked here, however it is built: a
    threshold is an exact rate in [0, 1], and a count is an int (not a
    bool) of at least 1.  Only "count <= n" waits for ``resolve(n)``.
    """

    mode: str
    threshold: Fraction | None = None
    count: int | None = None

    def __post_init__(self):
        if self.mode == "auto":
            if self.threshold is not None or self.count is not None:
                raise ValueError("auto mode takes no parameters")
        elif self.mode == "threshold":
            if self.count is not None:
                raise ValueError("threshold mode takes no count")
            t = parse_probability(self.threshold, "threshold")
            object.__setattr__(self, "threshold", t)
        elif self.mode == "top":
            if self.threshold is not None:
                raise ValueError("top mode takes no threshold")
            if type(self.count) is not int or self.count < 1:
                raise ValueError(f"top mode needs an int count >= 1, got {self.count!r}")
        else:
            raise ValueError(f"unknown selection mode {self.mode!r}")

    @classmethod
    def auto(cls) -> "SelectionSpec":
        return cls("auto")

    @classmethod
    def at_threshold(cls, threshold) -> "SelectionSpec":
        return cls("threshold", threshold=threshold)

    @classmethod
    def top(cls, count: int) -> "SelectionSpec":
        return cls("top", count=count)

    @classmethod
    def parse(cls, text: str) -> "SelectionSpec":
        """Accepts "auto", "paper" (alias of auto), "top:<m>", "thr:<t>"."""
        text = text.strip()
        if text in ("auto", "paper"):
            return cls.auto()
        if text.startswith("top:"):
            try:
                m = int(text[4:])
            except ValueError as exc:
                raise ValueError(f"bad selection {text!r}") from exc
            return cls.top(m)
        if text.startswith("thr:"):
            return cls.at_threshold(text[4:])
        raise ValueError(
            f"bad selection {text!r} (want auto, paper, top:<m>, or thr:<t>)"
        )

    def name(self) -> str:
        if self.mode == "auto":
            return "auto"
        if self.mode == "top":
            return f"top:{self.count}"
        return f"thr:{self.threshold}"

    def resolve(self, n: int) -> "SelectionSpec":
        """Replace auto with its concrete threshold for this n; refuse a
        top count above n."""
        if self.mode == "auto":
            return SelectionSpec("threshold", threshold=default_threshold(n))
        if self.mode == "top" and self.count > n:
            raise ValueError(f"cannot take top {self.count} of {n} rows")
        return self

    def to_json(self) -> dict:
        d = {"mode": self.mode}
        if self.threshold is not None:
            d["threshold"] = str(self.threshold)
        if self.count is not None:
            d["count"] = self.count
        return d

    @classmethod
    def from_json(cls, d: dict) -> "SelectionSpec":
        mode = d.get("mode")
        if mode == "auto":
            return cls.auto()
        if mode == "threshold":
            return cls.at_threshold(d["threshold"])
        if mode == "top":
            return cls.top(d["count"])
        raise ValueError(f"bad selection record {json.dumps(d)}")

    def __str__(self) -> str:
        return self.name()


def select_rows(n: int, s, spec: SelectionSpec) -> ColumnSet:
    """Selected 1-based row indices, from the exact profile.

    Leaves are compared on their integer numerators over the shared
    denominator, and against a threshold by cross-multiplication.
    """
    spec = spec.resolve(n)
    nums, den = _leaf_numerators(n, s, range(n))
    if spec.mode == "threshold":
        t = spec.threshold
        return ColumnSet(tuple(j + 1 for j, a in enumerate(nums) if _above(a, den, t)))
    m = spec.count
    order = sorted(range(n), key=lambda j: (-nums[j], j))
    return ColumnSet(tuple(sorted(j + 1 for j in order[:m])))


# ---------------------------------------------------------------------------
# certified log-domain enclosures of the small tail, for fast selection
#
# A leaf's tail is v on side 0 and 1 - v on side 1.  math.log2 and numpy's
# float64 exp2 and log2 are taken to be within 4 ulps of the true value.
# Each rounded log2 result r is widened to [r*(1+_PAD) - _PAD,
# r*(1-_PAD) + _PAD], that is by _PAD * (1 + |r|) = 32 unit roundoffs of
# max(1, |r|) per side.  The steps below lose at most about 25 of those:
# 4-ulp exp2 and log2, the rounding of 2 - u or 1 - u, the final add, and
# the padding arithmetic itself.  log2 of an exact fraction a/b is padded
# by _PAD * (1 + |log2 a| + |log2 b|), which covers both logs and the
# difference.

_PAD = 2.0**-48


def _tail(x: Fraction) -> tuple[bool, float, float]:
    """(side, lo, hi): the small tail of an exact x in [0, 1] and floats
    lo <= log2(tail) <= hi; side is True where the tail is 1 - x."""
    side = x > Fraction(1, 2)
    t = 1 - x if side else x
    if t == 0:
        return side, -math.inf, -math.inf
    a, b = math.log2(t.numerator), math.log2(t.denominator)
    pad = _PAD * (1 + abs(a) + abs(b))
    return side, a - b - pad, a - b + pad


def _down(r: np.ndarray, pad) -> np.ndarray:
    return r * (1 + pad) - pad


def _up(r: np.ndarray, pad) -> np.ndarray:
    return r * (1 - pad) + pad


def _tail_enclosure(n: int, s: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per leaf: side (True where the tail is 1 - v) and lo <= log2(tail) <= hi.

    The squaring child of a node (rr on side 0, ell on side 1) keeps the
    side and doubles both ends exactly.  The other child maps the tail t
    to t*(2 - t), i.e. L -> L + log2(2 - 2**L), increasing in L.  When
    that exceeds 1/2 by the interval's midpoint, which needs t > 0.29, the
    child flips side instead: its tail is (1 - t)**2, i.e.
    L -> 2*log2(1 - 2**L), decreasing in L.  The flipped step's error
    grows with t/(1 - t), and so does its padding, so every interval
    stays certified however wide it gets.
    """
    levels = _levels(n)
    side, lo, hi = (np.array([v]) for v in _tail(s))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(levels):
            u_lo, u_hi = np.exp2(lo), np.exp2(hi)
            f_lo = lo + np.log2(2 - u_lo)
            f_hi = hi + np.log2(2 - u_hi)
            flip = f_lo + f_hi > -2
            g_lo = _down(2 * np.log2(1 - u_hi), _PAD * (1 + u_hi / (1 - u_hi)))
            g_hi = _up(2 * np.log2(1 - u_lo), _PAD * (1 + u_lo / (1 - u_lo)))
            o_lo = np.where(flip, g_lo, _down(f_lo, _PAD))
            o_hi = np.minimum(np.where(flip, g_hi, _up(f_hi, _PAD)), 0.0)
            m = side.shape[0]
            nlo, nhi, nside = np.empty(2 * m), np.empty(2 * m), np.empty(2 * m, bool)
            # even children take ell, odd children rr; rr squares side 0
            nlo[0::2] = np.where(side, 2 * lo, o_lo)
            nlo[1::2] = np.where(side, o_lo, 2 * lo)
            nhi[0::2] = np.where(side, 2 * hi, o_hi)
            nhi[1::2] = np.where(side, o_hi, 2 * hi)
            nside[0::2] = side | flip
            nside[1::2] = side & ~flip
            side, lo, hi = nside, nlo, nhi
    return side, lo, hi


def _key_enclosure(side, lo, hi):
    """Enclosure of key(v) from a tail enclosure; key increases strictly with v.

    key(v) = log2(v) for v <= 1/2 and -log2(1 - v) for v > 1/2, so it
    jumps from -1 to above 1 at 1/2.
    """
    return np.where(side, -hi, lo), np.where(side, -lo, hi)


def select_rows_fast(n: int, s, spec: SelectionSpec) -> ColumnSet:
    """Same selection as select_rows, via certified tail enclosures.

    Each leaf gets an interval on its key (see _key_enclosure); a leaf
    whose tail may reach 1/2, so that its side is undecided, gets an
    unbounded one.  Leaves whose interval lies wholly above the cut are
    taken, wholly below are dropped, and the rest are recomputed exactly
    in one walk of the profile tree (_leaf_numerators), which computes
    the prefixes they share once, so the result matches the exact
    selection.  In top mode the cut runs from the m-th largest lower end
    to the (m+1)-th largest upper end: a leaf above the latter beats
    n - m others, and one below the former is beaten by m others.
    """
    spec = spec.resolve(n)
    sf = parse_probability(s, "s")
    side, lo, hi = _tail_enclosure(n, sf)  # checks n before any shortcut
    if spec.mode == "top":
        m = spec.count
        if m == n:
            return ColumnSet.full(n)
    klo, khi = _key_enclosure(side, lo, hi)
    undecided = hi >= -1
    klo[undecided], khi[undecided] = -np.inf, np.inf
    if spec.mode == "threshold":
        t = spec.threshold
        cut_lo, cut_hi = _key_enclosure(*_tail(t))
    else:
        cut_lo = np.partition(klo, n - m)[n - m]
        cut_hi = np.partition(khi, n - m - 1)[n - m - 1]
    sure = klo > cut_hi
    unsure = np.flatnonzero(~sure & (khi >= cut_lo)).tolist()
    # numerators only: the leaves share one denominator, and a Fraction's
    # gcd would cost far more than the numerator at large n
    nums, den = _leaf_numerators(n, sf, unsure)
    if spec.mode == "threshold":
        extra = [j for j, a in zip(unsure, nums) if _above(a, den, t)]
    else:
        exact = dict(zip(unsure, nums))
        extra = sorted(unsure, key=lambda j: (-exact[j], j))[: m - int(sure.sum())]
    picked = np.flatnonzero(sure).tolist() + extra
    return ColumnSet(tuple(sorted(j + 1 for j in picked)))


def polarization_fractions(values, delta) -> tuple[Fraction, Fraction, Fraction]:
    """(low, mid, high) fractions of leaves vs the cutoff delta.

    low: value < delta; high: value > 1 - delta; mid: the closed band
    between.  Accepts exact or float leaves; delta compared in kind.
    """
    d = parse_probability(delta, "delta")
    if not 0 < d < Fraction(1, 2):
        raise ValueError("delta must lie in (0, 1/2)")
    vals = list(values)
    n = len(vals)
    if n == 0:
        raise ValueError("empty profile")
    if isinstance(vals[0], float) or isinstance(vals[0], np.floating):
        lo_cut, hi_cut = float(d), 1.0 - float(d)
    else:
        lo_cut, hi_cut = d, 1 - d
    low = sum(1 for v in vals if v < lo_cut)
    high = sum(1 for v in vals if v > hi_cut)
    return Fraction(low, n), Fraction(n - low - high, n), Fraction(high, n)


# ---------------------------------------------------------------------------
# the same recursion read as Bhattacharyya parameters


def bhattacharyya_sum(n: int, z0, rows: ColumnSet) -> Fraction:
    """Exact sum of leaf values over the complement of ``rows``.

    Upper-bounds the decoding failure probability of the code whose
    checks are the selected rows; can exceed 1 (clamp for reporting).
    Uses the martingale identity: total mass is n * z0, so only the
    selected leaves need exact evaluation, all of them in one walk of the
    profile tree (_leaf_numerators) that computes each shared prefix
    once.  Every leaf shares the denominator of z0 to the n-th power, so
    their numerators are summed and one Fraction is built.
    """
    z = parse_probability(z0, "z0")
    rows = _as_column_set(rows, n, "rows")
    nums, den = _leaf_numerators(n, z, rows.zero_based())
    return n * z - Fraction(sum(nums), den)


# ---------------------------------------------------------------------------
# profile CSV: "# mode: exact|float" header, then index,rho rows


def write_profile_csv(values, exact: bool, target) -> None:
    lines = [f"# mode: {'exact' if exact else 'float'}", "index,rho"]
    for i, v in enumerate(values, start=1):
        if exact:
            lines.append(f"{i},{Fraction(v)}")
        else:
            lines.append(f"{i},{float(v):.17g}")
    _write_text(target, "\n".join(lines) + "\n")


def read_profile_csv(source) -> tuple[bool, list]:
    """Returns (exact, values) from the CSV format written above."""
    text = _read_text(source)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("# mode:"):
        raise ValueError("missing profile header")
    mode = lines[0].split(":", 1)[1].strip()
    if mode not in ("exact", "float"):
        raise ValueError(f"bad profile mode {mode!r}")
    if lines[1] != "index,rho":
        raise ValueError("missing index,rho header row")
    vals = []
    for want, ln in enumerate(lines[2:], start=1):
        idx, _, val = ln.partition(",")
        if int(idx) != want:
            raise ValueError(f"profile rows out of order at index {idx}")
        vals.append(Fraction(val) if mode == "exact" else float(val))
    return mode == "exact", vals
