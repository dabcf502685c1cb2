"""T's butterfly graph, and the lane layout of blocks on ints.

T is the n x n transform (n a power of two), T[i, j] = 1 when
i & ~j == 0.  u = T x is n log2 n butterflies: for each index bit h,
the entry j with bit h clear gains the entry j + h (the inverse
subtracts).  One body applies them per representation:
``_array_transform`` on a numpy vector over any field, and
``_gf2_transform`` on an int over GF(2), one XOR per index bit.

Ints carry blocks of vectors and masks in one interleaved layout: in a
block of L lanes, coordinate j of lane t is bit j * L + t (one lane:
bit j = coordinate j).  So a butterfly step on every lane at once is the
one-lane step with h replaced by h * L, and a node's two halves are
still v & lo and v >> h * L.

A matrix of the rows ``frozen`` of T has the kernel {x : u_i = 0 for
i in frozen}, the polar code with those rows frozen.  Two algorithms on
the graph serve it, each on every lane of a block at once and each by
recursion on one node tree (``_sc_plan``): successive cancellation
(``_sc_decode``, over GF(2)), which the erasure decoder
``fields._erasure_decode`` runs, and peeling (``_bp_known``, over every
field), which the independence oracle ``fields._flags_independent``
runs.  The tree is the graph's structure, not a certificate: neither
algorithm calls the other, so decoder and oracle share none.
"""
from __future__ import annotations

import functools

import numpy as np

from ._gf2core import _bits_int, _int_bits, _pack_rows_u8, _row_ints, _rows_packed, _unpack_bits


def _array_transform(v, q: int | None, inverse: bool = False):
    """T v (inverse: T^-1 v) for a canonical vector v of power-of-two
    length: an array over GF(q), a list over the rationals (q None).

    Each pass adds (inverse: subtracts) the entries with bit h set into
    their partners with bit h clear, reducing mod q when there is one.
    """
    a = np.array(v, dtype=None if q else object)
    for h in (1 << b for b in range(len(a).bit_length() - 1)):
        w = a.reshape(-1, 2, h)
        if inverse:
            w[:, 0] -= w[:, 1]
        else:
            w[:, 0] += w[:, 1]
        if q:
            w[:, 0] %= q
    return a if q else a.tolist()


@functools.lru_cache(maxsize=16)
def _sc_masks(n: int, lanes: int = 1) -> tuple[tuple[int, int], ...]:
    """(h * lanes, the bits of the coordinates j with j & h == 0) for
    h = n/2, ..., 1, on a block of ``lanes`` lanes of n coordinates."""
    full = (1 << n * lanes) - 1
    return tuple(
        (s, full // ((1 << 2 * s) - 1) * ((1 << s) - 1))
        for s in (n * lanes >> k for k in range(1, n.bit_length()))
    )


@functools.lru_cache(maxsize=16)
def _lane_copies(v: int, n: int, lanes: int) -> int:
    """The n-bit int v in every lane of a block: bit j of v becomes the
    ``lanes`` bits of coordinate j."""
    return _bits_int(np.repeat(_int_bits(v, n), lanes))


def _lane_ints(v: int, n: int, lanes: int) -> list[int]:
    """Each lane of a block as an n-bit int, bit j = coordinate j."""
    if lanes == 1:
        return [v]
    return _row_ints(_pack_rows_u8(_int_bits(v, n * lanes).reshape(n, lanes).T))


def _interleave(vs: list[int], n: int) -> int:
    """The block whose lane t is the n-bit int vs[t]; the inverse of
    ``_lane_ints``."""
    if len(vs) == 1:
        return vs[0]
    return _bits_int(_unpack_bits(_rows_packed(vs, n), n).T)


@functools.lru_cache(maxsize=16)
def _lane_unit(n: int, lanes: int) -> int:
    """Bit j * lanes for every coordinate j: times a lanes-bit mask, the
    block holding that mask at every coordinate."""
    return ((1 << n * lanes) - 1) // ((1 << lanes) - 1)


def _lanes_any(v: int, n: int, lanes: int) -> int:
    """The lanes in which a block of n coordinates has a set bit, as a
    mask with bit t for lane t.

    Each step ORs the upper half of the coordinates that are left onto
    the lower half; the bits above it are never read again.
    """
    s = lanes << (n - 1).bit_length()
    while s > lanes:
        s >>= 1
        v |= v >> s
    return v & (1 << lanes) - 1


def _gf2_transform(x: int, n: int, lanes: int = 1) -> int:
    """T x over GF(2) in every lane of a block, one XOR per index bit."""
    for h, lo in _sc_masks(n, lanes):
        x ^= (x >> h) & lo
    return x


def _flag_int(cols: tuple[int, ...], n: int) -> int:
    """The 1-based columns ``cols`` as an int, bit j = 0-based column j."""
    flags = np.zeros(n, np.uint8)
    flags[np.array(cols, np.intp) - 1] = 1
    return _bits_int(flags)


def _bit_indices(v: int, n: int) -> list[int]:
    """The set bits of an n-bit int, ascending."""
    return np.flatnonzero(_int_bits(v, n)).tolist()


# node kinds of an SC plan: frozen leaves all, none, all but the last
# (repetition), only the first (single parity check), or some other set
_RATE0, _RATE1, _REP, _SPC, _MIXED = range(5)


@functools.lru_cache(maxsize=16)
def _sc_plan(frozen: int, n: int, lanes: int = 1) -> tuple:
    """The node tree that ``_sc_decode`` and ``_bp_open`` walk for the
    frozen mask ``frozen`` on blocks of ``lanes`` lanes.

    A node whose m leaves are all frozen, or none, or all but the last,
    or only the first, is a leaf of the plan: its code is {0}, every
    word, the repetition code, or the even-weight words (u_0 is the sum
    of x, u_{m-1} is x_{m-1}), and its erasure decoding needs no children
    (simplified SC, Alamdar-Yazdi and Kschischang 2011; Sarkis et al.
    2014).  Every leaf but (_RATE0,) is (kind, folds, lane mask,
    repunit): the shifts m * lanes / 2, ..., lanes that fold a lane's m
    coordinates onto its first by halving, (1 << lanes) - 1, and
    ``_lane_unit(m, lanes)``, which spreads a lanes-bit value over the
    coordinates in one multiply.  Any other node is (_MIXED,
    h * lanes, low-half mask, left, right, closed): closed is what
    peeling leaves open of the node's x when all of it is erased, built
    from the children's own, and only ``_bp_open`` reads it.
    """
    ones = (1 << lanes) - 1

    def node(frozen: int, m: int) -> tuple:
        full = (1 << m) - 1
        if frozen == full:
            return (_RATE0,)
        kind = _RATE1 if not frozen else _REP if frozen == full >> 1 else _SPC if frozen == 1 else _MIXED
        if kind != _MIXED:
            folds = tuple(m * lanes >> k for k in range(1, m.bit_length()))
            return (kind, folds, ones, _lane_unit(m, lanes))
        h = m >> 1
        plan = (_MIXED, h * lanes, (1 << h * lanes) - 1, node(frozen & full >> h, h), node(frozen >> h, h), -1)
        return plan[:5] + (_bp_open((1 << m * lanes) - 1, plan),)  # -1 bounds nothing

    return node(frozen, n)


def _sc_decode(v: int, f: int, plan: tuple) -> tuple[int, int]:
    """Successive-cancellation erasure decoding over GF(2) of every lane
    of a block in one recursion.

    ``v`` holds each lane's x off the flagged coordinates ``f`` (whatever
    it holds on them is ignored), and u_i = 0 for i frozen in ``plan``
    (``_sc_plan`` for the block's lane count).  Split x by the top index
    bit h into a (bit clear) and b (bit set): u's half with bit h clear
    is the transform of a + b, erased where a or b is, and u's other half
    is the transform of b.  Once a + b is decoded, b is known where b is,
    or where a is (any two of a, b and a + b give the third), so it stays
    erased where both are, and needs no decoding when that is nowhere.
    A child's word holds junk from that XOR on its erased bits, so the
    repetition and parity leaves read only v & ~f.  A leaf folds each
    lane's coordinates onto one lanes-bit field by halving: OR finds the
    erased lanes and the repetition value, AND the lanes erased
    everywhere, XOR the parity, and a count to two the lanes with two
    erasures; one multiply by the repunit spreads a value back over the
    coordinates.

    Returns (x, failed lanes): bit t of the mask is set when some flagged
    leaf u_i of lane t is not frozen, which depends on the lane's flags
    alone, and that lane's word is junk.  Fully known and fully frozen
    nodes never read the data, so on a word that is not a codeword the
    result is not a solution: check it.
    """
    if not f:
        return v, 0
    kind = plan[0]
    if kind == _MIXED:
        _, s, lo, left, right, _ = plan
        va, vb, fa, fb = v & lo, v >> s, f & lo, f >> s
        w, fab = va ^ vb, fa & fb
        c1, bad = _sc_decode(w, fa | fb, left)
        c2 = vb ^ ((w ^ c1) & (fb ^ fab))
        if fab:
            c2, bad2 = _sc_decode(c2, fab, right)
            bad |= bad2
        return (c1 ^ c2) | (c2 << s), bad
    if kind == _RATE0:
        return 0, 0
    _, folds, ones, rep = plan
    if kind == _RATE1:
        for s in folds:
            f |= f >> s
        return v, f & ones
    x = v & ~f
    if kind == _REP:
        for s in folds:
            x |= x >> s
            f &= f >> s
        return (x & ones) * rep, f & ones
    one, two, par = f, 0, x
    for s in folds:
        two |= (two >> s) | (one & (one >> s))
        one |= one >> s
        par ^= par >> s
    return x | (f & (par & ones) * rep), two & ones


def _bp_known(f: int, frozen: int, n: int, lanes: int = 1) -> int:
    """The coordinates of x that peeling on the butterfly graph determines,
    in every lane of the block ``f`` at once: x is known off ``f``, u = T x
    is zero on ``frozen`` (an n-bit mask, the same in every lane), and at
    each butterfly any two of the three nodes give the third, over any
    field.  Peeling's fixpoint does not depend on the schedule, so one
    descent of the node tree (``_bp_open`` on ``_sc_plan``) reaches it,
    lane by lane.  Every value peeling derives is zero on a kernel vector
    that is zero off ``f``."""
    full = (1 << n * lanes) - 1
    return full ^ _bp_open(f & full, _sc_plan(frozen, n, lanes))


def _bp_open(e: int, plan: tuple) -> int:
    """What peeling on a node's subgraph leaves open of the erased set
    ``e`` of its x, in every lane.  A mixed node's children see x's halves
    a and b as a + b and b; any two of the three give the third, and
    those rules alternate with the children's own fixpoints until a + b
    gains nothing.  The node's closed mask bounds every answer, and is
    the answer once ``e`` holds it (peeling is monotone).  A leaf folds
    lanes: rate 0 fixes every lane, rate 1 none, the repetition code each
    with one known coordinate, the parity check each with one erasure."""
    kind = plan[0]
    if kind == _MIXED:
        _, s, lo, left, right, closed = plan
        e &= closed
        if e == closed or not e:
            return e
        elo, eb = e & lo, e >> s
        ea = elo | eb
        while True:
            ea = _bp_open(ea, left) if ea else 0
            g = eb & (ea | elo)
            eb = _bp_open(g, right) if g else 0
            elo &= ea | eb
            nxt = ea & (elo | eb)
            if nxt == ea:
                return elo | eb << s
            ea = nxt
    if kind == _RATE0:
        return 0
    _, folds, ones, rep = plan
    if kind == _RATE1:
        return e
    if kind == _REP:
        for s in folds:
            e &= e >> s
        return (e & ones) * rep
    one, two = e, 0
    for s in folds:
        two |= (two >> s) | (one & (one >> s))
        one |= one >> s
    return e & (two & ones) * rep


@functools.lru_cache(maxsize=16)
def _message_rows(frozen: int, n: int) -> np.ndarray:
    """The rows of u outside the n-bit mask ``frozen``, ascending."""
    rows = np.flatnonzero(_int_bits(~frozen & (1 << n) - 1, n))
    rows.setflags(write=False)
    return rows


def _polar_block(frozen: int, n: int, bits: np.ndarray) -> int:
    """The block of codewords c = T u over GF(2) whose lane t has u zero
    on the frozen rows and column t of the (n - |frozen|, L) 0/1 array
    ``bits`` on the others, in order."""
    lanes = bits.shape[1]
    u = np.zeros((n, lanes), np.uint8)
    u[_message_rows(frozen, n)] = bits
    return _gf2_transform(_bits_int(u), n, lanes)
