"""Exact subset-sum profiles, concentration, range, and cube-set extraction.

For an integer weight vector w of length n, the profile is the exact multiset
{sum -> count} of all 2^n subset sums.  Three independent algorithms produce
it (full enumeration, the count polynomial prod(1 + x^w_i) packed into one
integer, meet in the middle) and must agree bit for bit; concentration rho,
the range size, the Levy window maximum, fibers, and canonical per-sum
representatives all derive from it.  This module owns the packed table's
format (``_slot_format``, ``_read_slots``), which the frontier sweep reads too;
a table-built profile keeps the slots as read.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate, compress, count, islice, repeat, zip_longest
from operator import eq, lt, ne
from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_DP_CAPACITY, DEFAULT_MITM_CAP, DEFAULT_NAIVE_CAP, WORK_LIMIT
from .errors import BadParams, Record, TooLarge, charge

Weights = tuple  # tuple of int, length >= 1

# Work units per subset sum a cube-set builder enumerates: fitted by timing,
# each takes about 0.3-0.4 us and 140 bytes, so n = 21 fits and n = 22 does not.
_SUM_COST = 40
# Window starts whose masses levy takes from one packed subtraction: at
# 8-byte slots the ints and buffers of one step stay under about 1 MB.
_LEVY_STARTS = 1 << 14
# array typecode of each slot width in bytes
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


def _integer(e) -> int:
    """One weight entry as an int: an integral Fraction is its numerator."""
    if isinstance(e, Fraction):
        if e.denominator != 1:
            raise BadParams(f"weight {e} is not an integer")
        e = e.numerator
    if isinstance(e, bool) or not isinstance(e, int):
        raise BadParams(f"weight {e!r} is not an integer")
    return e


def as_weights(entries: Iterable) -> Weights:
    """Validate and normalize a weight vector to a tuple of ints; plain ints
    skip ``_integer``, whose isinstance checks go through ABCMeta."""
    out = [e if type(e) is int else _integer(e) for e in entries]
    if not out:
        raise BadParams("weight vector must have length >= 1")
    return tuple(out)


class SumProfile:
    """Sorted exact multiset of the 2^n subset sums of a weight vector.

    A table-built profile keeps the table's slots: slot j counts the sum
    offset + j, so its sums fill one range, with zero slots where no subset
    lands.  An enumerated profile keeps its sorted sums and counts.  Both
    forms read alike through ``sums``, ``counts``, ``items()`` and
    ``as_dict()`` (derived from the slots when first asked), and ``==`` and
    ``hash`` go by (n, sums, counts).  Only the constructor and
    ``from_counts`` validate: kernels build through ``_trusted``.
    """

    __slots__ = ("n", "_sums", "_counts", "_offset", "_slots")

    def __init__(self, n: int, sums: Sequence, counts: Sequence):
        sums, counts = tuple(sums), tuple(counts)
        if len(sums) != len(counts):
            raise BadParams("sums and counts must align")
        if not all(map(lt, sums, islice(sums, 1, None))):
            raise BadParams("sums must be strictly increasing")
        if min(counts, default=0) < 1:
            raise BadParams("counts must be >= 1")
        if sum(counts) != 1 << n:
            raise BadParams("counts must total 2^n")
        self.n, self._sums, self._counts, self._offset, self._slots = (
            n, sums, counts, None, None
        )

    @classmethod
    def _trusted(cls, n: int, sums=None, counts=None, *, offset=None, slots=None):
        """A kernel's profile, unchecked: sorted sums and their counts, or a
        table's slots whose first and last are nonzero, slot j for offset + j."""
        p = cls.__new__(cls)
        p.n, p._sums, p._counts, p._offset, p._slots = n, sums, counts, offset, slots
        return p

    @classmethod
    def from_counts(cls, n: int, counts: dict) -> "SumProfile":
        sums = tuple(sorted(counts))
        return cls(n=n, sums=sums, counts=tuple(counts[s] for s in sums))

    @property
    def sums(self) -> tuple:
        if self._sums is None:
            self._sums = tuple(compress(count(self._offset), self._slots))
        return self._sums

    @property
    def counts(self) -> tuple:
        if self._counts is None:
            self._counts = tuple(filter(None, self._slots))
        return self._counts

    def items(self) -> Iterator[tuple]:
        return zip(self.sums, self.counts)

    def as_dict(self) -> dict:
        return dict(self.items())

    @property
    def range_size(self) -> int:
        if self._slots is None:
            return len(self._sums)
        return len(self._slots) - self._slots.count(0)

    @property
    def total(self) -> int:
        return 1 << self.n

    def __eq__(self, other):
        if not isinstance(other, SumProfile):
            return NotImplemented
        return (self.n, self.sums, self.counts) == (other.n, other.sums, other.counts)

    def __hash__(self):
        return hash((self.n, self.sums, self.counts))

    def __repr__(self):
        return f"SumProfile(n={self.n}, sums={self.sums}, counts={self.counts})"


class ConcentrationReport(Record):
    """rho with its witness sum, the range size, and the log exponents.

    epsilon = ln(1/rho)/n and delta = ln|R|/n; the exact rho is kept so
    downstream checks never depend on the float companions.
    """

    n: int
    rho: Fraction
    tau: int
    range_size: int
    epsilon: float
    delta: float


class CubeSet(Record):
    """A subset of {0,1}^n as ascending int masks, coordinate 1 the most
    significant of n bits, so mask order is lexicographic order.  Only this
    module maps masks to vectors, and only ``from_vectors`` validates."""

    n: int
    masks: tuple

    @classmethod
    def from_vectors(cls, n: int, vectors: Iterable) -> "CubeSet":
        masks = set()
        for v in map(tuple, vectors):
            if len(v) != n or any(x not in (0, 1) for x in v):
                raise BadParams(f"{v} is not a 0/1 vector of length {n}")
            masks.add(sum((x == 1) << (n - 1 - i) for i, x in enumerate(v)))
        return cls(n=n, masks=tuple(sorted(masks)))

    @property
    def vectors(self) -> tuple:
        return tuple(self)

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        n = self.n
        return (tuple(m >> (n - 1 - i) & 1 for i in range(n)) for m in self.masks)

    def __contains__(self, v):
        try:
            (mask,) = CubeSet.from_vectors(self.n, [v]).masks
        except BadParams:
            return False
        i = bisect_left(self.masks, mask)
        return i < len(self.masks) and self.masks[i] == mask

    def spread(self, radix: int) -> list:
        """Each mask's bits read as base-``radix`` digits, radix >= 2, so the
        numbers ascend with the masks."""
        out = [0] * len(self.masks)
        for lo in range(0, self.n, 12):
            table = [0]  # digit sums of a 12-bit chunk
            for j in range(lo, min(lo + 12, self.n)):
                place = radix**j
                table += [t + place for t in table]
            out = [o + table[m >> lo & 4095] for o, m in zip(out, self.masks)]
        return out


def _slot_format(n: int) -> tuple:
    """Slot width in bytes and array typecode of an n-weight sum table: a
    count is at most 2^n, so n//8 + 1 bytes, rounded up to 1, 2, 4 or 8 while
    an array typecode fits, and with no typecode (None) from n = 64 on."""
    width = 1 << (n // 8).bit_length()
    code = _TYPECODES.get(width)
    return (width, code) if code else (n // 8 + 1, None)


def _read_slots(poly: int, size: int, width: int, typecode) -> Sequence:
    """The first ``size`` slots of a packed table, in native byte order:
    an array when the width has a typecode, else a list of ints."""
    table = poly.to_bytes(width * size, sys.byteorder)
    if typecode:
        return array(typecode, table)
    starts = range(0, len(table), width)
    return [int.from_bytes(table[i : i + width], sys.byteorder) for i in starts]


def _exponents(rho: Fraction, range_size: int, n: int) -> tuple:
    """epsilon = ln(1/rho)/n and delta = ln|R|/n, as floats."""
    epsilon = (math.log(rho.denominator) - math.log(rho.numerator)) / n
    return epsilon, math.log(range_size) / n


def _subset_sums(w: Sequence, cap: int) -> list:
    """All 2^n subset sums, refused beyond n = cap; entry m is the sum of
    the w[j] whose bit j is set in m."""
    charge(len(w), cap, "n")
    sums = [0]
    for wi in w:
        sums += [s + wi for s in sums]
    return sums


def profile_naive(w: Weights, *, cap: int = DEFAULT_NAIVE_CAP) -> SumProfile:
    """Profile by enumerating all 2^n subset sums (the defining computation),
    kept sorted: each weight's shifted copy is a second ascending run, which
    one merge in C folds in.  Each run of equal sums gives a sum and its
    count: a byte a sum marks each run's last, and read as a newline it ends
    that run's line, whose length is the count."""
    w = as_weights(w)
    charge(len(w), cap, "n")
    sums = [0]
    for wi in w:
        sums += [s + wi for s in sums]
        sums.sort()
    ends = bytes(map(ne, sums, islice(sums, 1, None))) + b"\1"  # 1 where a run ends
    runs = ends.translate(bytes.maketrans(b"\1", b"\n")).splitlines(keepends=True)
    counts = tuple(map(len, runs))
    return SumProfile._trusted(len(w), tuple(compress(sums, ends)), counts)


def profile_dp(w: Weights, *, capacity: int = DEFAULT_DP_CAPACITY) -> SumProfile:
    """Profile via the count polynomial prod(1 + x^|w_i|), packed in one int.

    Slot j (see ``_slot_format``) counts the subsets whose magnitudes sum to
    j; no slot carries into the next, and each weight folds in as one
    shift-add.  A negative weight is the reflection x_i -> 1 - x_i of its
    magnitude, which moves every sum by w_i, so slot j holds the count of sum
    j - (sum of negative magnitudes).  The span of magnitudes is charged
    against capacity, and the n * width * (span + 1) bytes the shift-adds
    move against 512 * (capacity + 1), which every n < 64 within the span
    fits; the profile keeps its slots.
    """
    w = as_weights(w)
    n = len(w)
    neg = -sum(wi for wi in w if wi < 0)
    span = sum(abs(wi) for wi in w)
    charge(span, capacity, "sum range width")
    width, typecode = _slot_format(n)
    charge(n * width * (span + 1), 512 * (capacity + 1), "sum table bytes moved")
    poly = 1  # the empty subset
    for wi in w:
        poly += poly << (8 * width * abs(wi))
    slots = _read_slots(poly, span + 1, width, typecode)
    return SumProfile._trusted(n, offset=-neg, slots=slots)


def profile_mitm(w: Weights, *, cap: int = DEFAULT_MITM_CAP) -> SumProfile:
    """Profile by meet in the middle: profile both halves, then convolve.

    The convolution walks distinct half-sums only, so vectors with heavy
    collisions cost far less than 2^n.  Its pairs of distinct half-sums are
    charged against 2^(cap//2), the cost of one half at the cap, each time a
    weight folds into a half, so a refusal comes after about that much work.
    """
    w = as_weights(w)
    n = len(w)
    charge(n, cap, "n")
    # the pairs never exceed 2^n, so capping the exponent at n keeps the limit small
    limit = 1 << min(cap // 2, n)
    left, right = halves = Counter({0: 1}), Counter({0: 1})
    for pair in zip_longest(w[: n // 2], w[n // 2 :]):  # the halves grow in turn
        for half, wi in zip(halves, pair):
            if wi is not None:
                half.update({s + wi: c for s, c in half.items()})
                charge(len(left) * len(right), limit, "distinct half-sum pairs")
    acc: dict = {}
    get = acc.get
    for s1, c1 in left.items():
        for s2, c2 in right.items():
            s = s1 + s2
            acc[s] = get(s, 0) + c1 * c2
    sums = sorted(acc)
    return SumProfile._trusted(n, tuple(sums), tuple(map(acc.__getitem__, sums)))


def profile(
    w: Weights,
    algorithm: str = "auto",
    *,
    naive_cap: int = DEFAULT_NAIVE_CAP,
    dp_capacity: int = DEFAULT_DP_CAPACITY,
    mitm_cap: int = DEFAULT_MITM_CAP,
) -> SumProfile:
    """Profile with the named algorithm, or under "auto" with the first that
    takes w: the table first when its span + 1 slots number at most the 2^n
    sums naive enumerates, else naive, meet in the middle, then the table.
    Timed (CPython 3.11, 2-core x86, n = 17, span 10^5), the table builds
    in 1.8 ms and ``concentration`` plus ``levy`` read it in 10 ms, naive in
    19 + 8 ms, so the cutoff stays: no vector changes kernel, and the
    profile is the same either way.  Each decides by its own charges;
    TooLarge joins the refusals when all three refuse."""
    w = as_weights(w)
    kernels = {
        "naive": lambda: profile_naive(w, cap=naive_cap),
        "dp": lambda: profile_dp(w, capacity=dp_capacity),
        "mitm": lambda: profile_mitm(w, cap=mitm_cap),
    }
    if algorithm != "auto":
        if algorithm not in kernels:
            raise BadParams(f"unknown algorithm {algorithm!r}")
        return kernels[algorithm]()
    table_first = sum(map(abs, w)) + 1 <= 1 << len(w)
    refusals = []
    for name in ("dp", "naive", "mitm") if table_first else ("naive", "mitm", "dp"):
        try:
            return kernels[name]()
        except TooLarge as exc:
            refusals.append(f"{name}: {exc}")
    raise TooLarge("; ".join(refusals))


def concentration(p: SumProfile) -> ConcentrationReport:
    """Largest fiber mass rho, its smallest witness sum, and the exponents.
    A table-built profile is read from its slots, as the sweep's leaves are."""
    if p._slots is None:
        maxc = max(p._counts)
        tau = p._sums[p._counts.index(maxc)]
    else:
        maxc = max(p._slots)
        tau = p._offset + p._slots.index(maxc)
    rho, range_size = Fraction(maxc, p.total), p.range_size
    epsilon, delta = _exponents(rho, range_size, p.n)
    return ConcentrationReport(p.n, rho, tau, range_size, epsilon, delta)


def levy(p: SumProfile, r) -> tuple:
    """Maximum probability mass in a closed window of radius r, with witness.

    Integer sums make a window of width 2r cover what one of width floor(2r)
    does.  tau is the midpoint of the best window's extreme sums, the least
    such: midpoints never fall as the start moves right, so the first best
    start gives it.  A table-built profile takes every window's mass from one
    prefix over its slots; an enumerated one, or a table whose slots are too
    wide for an array, slides one window: its end takes in each sum once.
    """
    r = Fraction(r)
    if r < 0:
        raise BadParams("window radius must be >= 0")
    width = math.floor(2 * r)
    if isinstance(p._slots, array):
        return _levy_slots(p, width)
    sums, counts = p.sums, p.counts
    ends = (*sums, math.inf)  # the sentinel closes every window at the last sum
    best = mass = end = 0
    for lo, c in zip(sums, counts):
        top = lo + width
        while ends[end] <= top:
            mass += counts[end]
            end += 1
        if mass > best:
            best, first, last = mass, lo, sums[end - 1]
        mass -= c
    return Fraction(first + last, 2), Fraction(best, p.total)


def _levy_slots(p: SumProfile, width: int) -> tuple:
    """``levy`` over a table's slots.  The window from slot j holds
    prefix[j + width + 1] - prefix[j].  A prefix total is at most 2^n, as a
    slot is, so the prefix takes the slots' typecode, and one subtraction of
    two packed runs of it gives the masses of _LEVY_STARTS starts, each
    difference within its slot.  A window running past the last slot holds
    no more than the one ending there, so later starts are not read.  The
    first best start moves on to the next nonzero slot, losing nothing, and
    the witness ends at the window's last nonzero slot."""
    slots = p._slots
    size, code, order = len(slots), slots.typecode, sys.byteorder
    width = min(width, size - 1)
    prefix = memoryview(array(code, accumulate(slots, initial=0)))
    best = first = 0
    for lo in range(0, size - width, _LEVY_STARTS):
        hi = min(lo + _LEVY_STARTS, size - width)
        ends = int.from_bytes(prefix[lo + width + 1 : hi + width + 1], order)
        diff = ends - int.from_bytes(prefix[lo:hi], order)
        masses = array(code, diff.to_bytes(slots.itemsize * (hi - lo), order))
        top = max(masses)
        if top > best:
            best, first = top, lo + masses.index(top)
    start = _first_nonzero(slots, range(first, size))
    last = _first_nonzero(slots, range(min(start + width, size - 1), start - 1, -1))
    return Fraction(2 * p._offset + start + last, 2), Fraction(best, p.total)


def _first_nonzero(slots: Sequence, indices: range) -> int:
    """The first index, in the order given, of a nonzero slot."""
    return next(compress(indices, map(slots.__getitem__, indices)))


def _cube_sums(w: Weights, cap: int) -> tuple:
    """n and the subset sums of w by CubeSet mask (bit n - i of a mask into
    w[::-1] is coordinate i), after charging _SUM_COST for each of the 2^n."""
    w = as_weights(w)
    charge(_SUM_COST << len(w), WORK_LIMIT, "cube-set subset-sum work")
    return len(w), _subset_sums(w[::-1], cap)


def fiber(w: Weights, tau, *, cap: int = DEFAULT_NAIVE_CAP) -> CubeSet:
    """All 0/1 vectors whose weighted sum equals tau (possibly empty)."""
    n, sums = _cube_sums(w, cap)
    if tau is None:  # the smallest most popular sum, as concentration picks
        tau = max(Counter(sums).items(), key=lambda sc: (sc[1], -sc[0]))[0]
    return CubeSet(n=n, masks=tuple(compress(count(), map(eq, sums, repeat(tau)))))


def unique_preimages(w: Weights, *, cap: int = DEFAULT_NAIVE_CAP) -> CubeSet:
    """One representative per attained sum: the lexicographically smallest
    preimage, coordinate 1 most significant, 0 before 1."""
    n, sums = _cube_sums(w, cap)
    # written from the last mask down, each sum keeps its least mask
    least = dict(zip(reversed(sums), range(len(sums) - 1, -1, -1)))
    return CubeSet(n=n, masks=tuple(sorted(least.values())))
