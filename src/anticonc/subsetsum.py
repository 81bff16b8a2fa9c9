"""Exact subset-sum profiles, concentration, range, and cube-set extraction.

For an integer weight vector w of length n, the profile is the exact multiset
{sum -> count} of all 2^n subset sums.  Three independent algorithms produce it
(full enumeration, the count polynomial prod(1 + x^w_i) packed into one
integer, meet in the middle) and must agree bit for bit; concentration rho, the
range size, the Levy window maximum, fibers, and canonical per-sum
representatives all derive from it, the first three read from its lower half:
xi -> 1 - xi sends s to sum(w) - s, so a profile is a palindrome.  This module
owns the packed table's format (``_slot_format``, ``_read_slots``), which the
frontier sweep reads too; a table-built profile keeps the slots as read.  Each
kernel reads its cap, and the cube-set builders the naive cap, from the
``errors.work_limit`` scope.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import compress, count, islice, repeat, zip_longest
from numbers import Number
from operator import add, eq, lt, ne
from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_DP_CAPACITY, DEFAULT_MITM_CAP, DEFAULT_NAIVE_CAP, WORK_LIMIT
from .errors import BadParams, Record, TooLarge, _shown, at_least, budget, charge

Weights = tuple  # tuple of int, length >= 1

# Work units per subset sum a cube-set builder enumerates: fitted by timing,
# each takes about 0.3-0.4 us and 140 bytes, so n = 21 fits and n = 22 does not.
_SUM_COST = 40
# Window starts whose masses levy takes from one exact division, or the
# window width if larger, so no step reads more than twice its starts: at
# 8-byte slots and a narrow window the ints of one step stay under 1 MB.
_LEVY_STARTS = 1 << 14
# array typecode of each slot width in bytes
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


def rational(name: str, value) -> Fraction:
    """A weight entry or a Levy radius, as text or a number, as a Fraction."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise BadParams(f"bad {name} {value!r}") from exc


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
    """Validate and normalize an iterable weight vector to a tuple of ints;
    plain ints skip ``_integer``, whose isinstance checks go through ABCMeta."""
    try:
        entries = iter(entries)
    except TypeError:
        raise BadParams(f"weights must be an iterable of integers, not {_shown(entries)}") from None
    out = [e if type(e) is int else _integer(e) for e in entries]
    if not out:
        raise BadParams("weight vector must have length >= 1")
    return tuple(out)


class SumProfile(Record):
    """Sorted exact multiset of the 2^n subset sums of a weight vector.

    A table-built profile keeps the table's slots: slot j counts the sum
    offset + j, so its sums fill one range, with zero slots where no subset
    lands, and |R|, which its kernel counted.  An enumerated profile keeps
    its sorted sums and counts.  Both forms read alike through ``sums``,
    ``counts``, ``items()``, ``as_dict()`` (a table's derived from its slots
    on each read) and ``range_size``, and, as a record, go by the fields
    (n, sums, counts) in ``==``, ``hash``, ``repr`` and pickling.  Only the
    constructor and ``from_counts`` validate, the palindrome included:
    kernels build through ``_trusted``.
    """

    __slots__ = ("n", "_sums", "_counts", "_offset", "_slots", "_range")
    n: int
    sums: tuple
    counts: tuple

    def __init__(self, n: int, sums: Sequence, counts: Sequence):
        at_least(0, n=n)
        sums, counts = tuple(sums), tuple(counts)
        if len(sums) != len(counts):
            raise BadParams("sums and counts must align")
        if not all(map(lt, sums, islice(sums, 1, None))):
            raise BadParams("sums must be strictly increasing")
        if min(counts, default=0) < 1:
            raise BadParams("counts must be >= 1")
        if sum(counts) != 1 << n:
            raise BadParams("counts must total 2^n")
        if counts != counts[::-1] or len(set(map(add, sums, reversed(sums)))) > 1:
            raise BadParams("sums and counts must be symmetric about half the total")
        for name, value in zip(self.__slots__, (n, sums, counts, None, None, None)):
            object.__setattr__(self, name, value)  # past the record's refusal

    @classmethod
    def _trusted(cls, n: int, sums=None, counts=None, *, offset=None, slots=None, range_size=None):
        """A kernel's profile, unchecked: sorted sums and their counts, or a
        table's slots whose first and last are nonzero, slot j for offset + j,
        with the number of nonzero slots."""
        p = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (n, sums, counts, offset, slots, range_size)):
            object.__setattr__(p, name, value)
        return p

    @classmethod
    def from_counts(cls, n: int, counts: dict) -> "SumProfile":
        sums = tuple(sorted(counts))
        return cls(n=n, sums=sums, counts=tuple(counts[s] for s in sums))

    @property
    def sums(self) -> tuple:
        slots = self._slots
        return self._sums if slots is None else tuple(compress(count(self._offset), slots))

    @property
    def counts(self) -> tuple:
        return self._counts if self._slots is None else tuple(filter(None, self._slots))

    def items(self) -> Iterator[tuple]:
        return zip(self.sums, self.counts)

    def as_dict(self) -> dict:
        return dict(self.items())

    @property
    def range_size(self) -> int:
        return len(self._sums) if self._slots is None else self._range

    @property
    def total(self) -> int:
        return 1 << self.n


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
    """The first ``size`` slots of a packed table, in native byte order: its
    bytes at width 1, an array at a width with a typecode, else a list of ints."""
    table = poly.to_bytes(width * size, sys.byteorder)
    if typecode:
        return table if width == 1 else array(typecode, table)
    starts = range(0, len(table), width)
    return [int.from_bytes(table[i : i + width], sys.byteorder) for i in starts]


def _exponents(rho: Fraction, range_size: int, n: int) -> tuple:
    """epsilon = ln(1/rho)/n and delta = ln|R|/n, as floats."""
    epsilon = (math.log(rho.denominator) - math.log(rho.numerator)) / n
    return epsilon, math.log(range_size) / n


def clamped_eps(epsilon: float, n: int) -> float:
    """eps clamped below at 1/n^2: below it the exponent relation is vacuous."""
    return max(epsilon, 1.0 / n**2)


def _subset_sums(w: Sequence) -> list:
    """All 2^n subset sums, unpriced; entry m is the sum of the w[j] whose
    bit j is set in m."""
    sums = [0]
    for wi in w:
        sums += [s + wi for s in sums]
    return sums


def profile_naive(w: Weights) -> SumProfile:
    """Profile by enumerating all 2^n subset sums (the defining computation),
    refused beyond n = ``naive_cap``, kept sorted: each weight's shifted copy
    is a second ascending run, which one merge in C folds in.  Each run of
    equal sums gives a sum and its count: a byte a sum marks each run's last,
    and read as a newline it ends that run's line, whose length is the count.
    When no two sums are equal, the sorted sums are the profile as they are."""
    w = as_weights(w)
    charge(len(w), budget(DEFAULT_NAIVE_CAP, "naive_cap"), "n")
    sums = [0]
    for wi in w:
        sums += [s + wi for s in sums]
        sums.sort()
    ends = bytes(map(ne, sums, islice(sums, 1, None))) + b"\1"  # 1 where a run ends
    if b"\0" not in ends:
        return SumProfile._trusted(len(w), tuple(sums), (1,) * len(sums))
    runs = ends.translate(bytes.maketrans(b"\1", b"\n")).splitlines(keepends=True)
    counts = tuple(map(len, runs))
    return SumProfile._trusted(len(w), tuple(compress(sums, ends)), counts)


def profile_dp(w: Weights) -> SumProfile:
    """Profile via the count polynomial prod(1 + x^|w_i|), packed in one int.

    Slot j (see ``_slot_format``) counts the subsets whose magnitudes sum to
    j; no slot carries into the next, and each weight folds in as one
    shift-add.  A negative weight is the reflection x_i -> 1 - x_i of its
    magnitude, which moves every sum by w_i, so slot j holds the count of sum
    j - (sum of negative magnitudes).  The span of magnitudes is charged
    against ``dp_cap``, and the n * width * (span + 1) bytes the shift-adds
    move against 512 * (dp_cap + 1), which every n < 64 within the span
    fits.  A support mask of span + 1 bits, one shift-or a weight, marks the
    reachable sums, so its bit count is |R|; the profile keeps its slots and |R|.
    """
    w = as_weights(w)
    capacity = budget(DEFAULT_DP_CAPACITY, "dp_cap")
    n = len(w)
    neg = -sum(wi for wi in w if wi < 0)
    span = sum(abs(wi) for wi in w)
    charge(span, capacity, "sum range width")
    width, typecode = _slot_format(n)
    charge(n * width * (span + 1), 512 * (capacity + 1), "sum table bytes moved")
    poly = supp = 1  # the empty subset
    for wi in map(abs, w):
        poly += poly << (8 * width * wi)
        supp |= supp << wi
    slots = _read_slots(poly, span + 1, width, typecode)
    return SumProfile._trusted(n, offset=-neg, slots=slots, range_size=supp.bit_count())


def profile_mitm(w: Weights) -> SumProfile:
    """Profile by meet in the middle: profile both halves, then convolve.

    The convolution walks distinct half-sums only, so vectors with heavy
    collisions cost far less than 2^n.  It is refused beyond n = ``mitm_cap``,
    and its pairs of distinct half-sums are charged against 2^(cap//2), the
    cost of one half at the cap, each time a weight folds into a half, so a
    refusal comes after about that much work.
    """
    w = as_weights(w)
    n, cap = len(w), budget(DEFAULT_MITM_CAP, "mitm_cap")
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


def profile(w: Weights, algorithm: str = "auto") -> SumProfile:
    """Profile with the named algorithm, or under "auto" with the first that
    takes w: the table first when its span + 1 slots number at most the 2^n
    sums naive enumerates, else naive, meet in the middle, then the table.
    Timed (CPython 3.11, 2-core x86, n = 17, span 10^5), the table builds
    in 2 ms and ``concentration`` plus ``levy`` read it in 4 ms, naive in
    21 + 4 ms, so the cutoff stays: no vector changes kernel, and the
    profile is the same either way.  Each decides by its own charges;
    TooLarge joins the refusals when all three refuse."""
    w = as_weights(w)
    kernels = {"naive": profile_naive, "dp": profile_dp, "mitm": profile_mitm}
    if algorithm != "auto":
        if algorithm not in kernels:
            raise BadParams(f"unknown algorithm {algorithm!r}")
        return kernels[algorithm](w)
    table_first = sum(map(abs, w)) + 1 <= 1 << len(w)
    refusals = []
    for name in ("dp", "naive", "mitm") if table_first else ("naive", "mitm", "dp"):
        try:
            return kernels[name](w)
        except TooLarge as exc:
            refusals.append(f"{name}: {exc}")
    raise TooLarge("; ".join(refusals))


def concentration(p: SumProfile) -> ConcentrationReport:
    """Largest fiber mass rho, its smallest witness sum, and the exponents;
    the first largest count lies in the lower half of the slots or counts,
    found there by ``_index``, and |R| is the profile's own."""
    counts = p._counts if p._slots is None else p._slots
    half = counts[: (len(counts) + 1) // 2]
    maxc = max(half)
    at = _index(half, maxc)
    tau = p._sums[at] if p._slots is None else p._offset + at
    rho, range_size = Fraction(maxc, p.total), p.range_size
    epsilon, delta = _exponents(rho, range_size, p.n)
    return ConcentrationReport(p.n, rho, tau, range_size, epsilon, delta)


def levy(p: SumProfile, r) -> tuple:
    """Maximum probability mass in a closed window of radius r, with witness.

    Integer sums make a window of width 2r cover what one of width floor(2r)
    does.  tau is the midpoint of the best window's extreme sums, the least
    such: midpoints never fall as the start moves right, so the first best
    start gives it, and it starts in the lower half, as a window and its
    mirror tie.  A table in an array takes each run of window masses from
    one exact division of its packed slots; any other profile, such as a
    table in bytes (at most 2^7 sums), slides one window from each lower-half
    sum.
    """
    r = rational("radius", r)
    if r < 0:
        raise BadParams("window radius must be >= 0")
    width = math.floor(2 * r)
    if isinstance(p._slots, array):
        return _levy_slots(p, width)
    sums, counts = p.sums, p.counts
    ends = (*sums, math.inf)  # the sentinel closes every window at the last sum
    best = mass = end = 0
    for lo, c in islice(zip(sums, counts), (len(sums) + 1) // 2):
        top = lo + width
        while ends[end] <= top:
            mass += counts[end]
            end += 1
        if mass > best:
            best, first, last = mass, lo, sums[end - 1]
        mass -= c
    return Fraction(first + last, 2), Fraction(best, p.total)


def _levy_slots(p: SumProfile, width: int) -> tuple:
    """``levy`` over a table's slots of B bits.  Read slots lo .. hi + width - 1
    as one int x: floor(x * (1 + 2^B + ... + 2^(B*width)) / 2^(B*width)),
    which is ((x << B) + (-x >> B*width)) // (2^B - 1), holds at slot j the
    mass of the window from slot lo + j.  A window holds at most 2^n < 2^B,
    so none carries into the next, and the windows cut short at the top are
    masked off.  A step takes max(_LEVY_STARTS, width) starts, so it reads
    at most twice as many slots.  No window runs past the last slot,
    and start j ties its mirror size - 1 - width - j, so only starts up to
    the middle are read.  The first best start moves on to the next nonzero
    slot, losing nothing, and the witness ends at the window's last nonzero
    slot."""
    slots = p._slots
    size, code, order = len(slots), slots.typecode, sys.byteorder
    width = min(width, size - 1)
    starts, step = (size - width + 1) // 2, max(_LEVY_STARTS, width)
    bits, view = 8 * slots.itemsize, memoryview(slots)
    best = first = 0
    for lo in range(0, starts, step):
        hi = min(lo + step, starts)
        x = int.from_bytes(view[lo : hi + width], order)
        x = (x << bits) + (-x >> bits * width)  # divided apart, so the x read
        x //= (1 << bits) - 1  # is freed before the division copies its dividend
        x &= (1 << bits * (hi - lo)) - 1
        masses = array(code, x.to_bytes(slots.itemsize * (hi - lo), order))
        top = max(masses)
        if top > best:
            best, first = top, lo + _index(masses, top)
    start = _first_nonzero(slots, range(first, size))
    last = _first_nonzero(slots, range(min(start + width, size - 1), start - 1, -1))
    return Fraction(2 * p._offset + start + last, 2), Fraction(best, p.total)


def _index(seq: Sequence, value: int) -> int:
    """``seq.index(value)``, on an array by a byte search that ``re`` makes
    in the array's own buffer, not in a copy: no item matches before a hit
    that straddles two, so the item scan resumes after it."""
    if not isinstance(seq, array):
        return seq.index(value)
    hit = re.search(re.escape(value.to_bytes(seq.itemsize, sys.byteorder)), seq)
    at = hit.start() if hit else -1
    item, straddles = divmod(at, seq.itemsize)  # item -1 when nothing matched
    return item if at >= 0 and not straddles else seq.index(value, item + 1)


def _first_nonzero(slots: Sequence, indices: range) -> int:
    """The first index, in the order given, of a nonzero slot."""
    return next(compress(indices, map(slots.__getitem__, indices)))


def _cube_weights(w: Weights) -> Weights:
    """w as weights, after charging _SUM_COST for each of its 2^n subset sums,
    then n against ``naive_cap``; ``_subset_sums(w[::-1])`` lists them by CubeSet mask."""
    w = as_weights(w)
    charge(_SUM_COST << len(w), WORK_LIMIT, "cube-set subset-sum work")
    charge(len(w), budget(DEFAULT_NAIVE_CAP, "naive_cap"), "n")
    return w


def fiber(w: Weights, tau) -> CubeSet:
    """The 0/1 vectors of weighted sum tau, a number, possibly none; tau None is concentration's."""
    if tau is not None and not isinstance(tau, Number):
        raise BadParams(f"tau must be a number, not {tau!r}")
    w = _cube_weights(w)
    if tau is None:  # from a profile freed before the sums are built
        tau = concentration(profile(w)).tau
    masks = compress(count(), map(eq, _subset_sums(w[::-1]), repeat(tau)))
    return CubeSet(n=len(w), masks=tuple(masks))


def unique_preimages(w: Weights) -> CubeSet:
    """One representative per attained sum: the lexicographically smallest
    preimage, coordinate 1 most significant, 0 before 1."""
    w = _cube_weights(w)
    sums = _subset_sums(w[::-1])
    # written from the last mask down, each sum keeps its least mask
    least = dict(zip(reversed(sums), range(len(sums) - 1, -1, -1)))
    return CubeSet(n=len(w), masks=tuple(sorted(least.values())))
