"""Iterated sumsets k*B with multiplicities, injectivity, and density checks.

B lives in {0,1}^n, so every k-fold sum lands in {0,...,k}^n and every
A-shifted sum in {0,...,k+1}^n.  Vectors are stored under fixed-radix integer
keys with radix k+2, coordinate 1 the most significant digit, so a 0/1
vector's key is its ``CubeSet`` mask read in base k+2 and key order is
lexicographic order.  Digits never carry, so vector addition is plain integer
addition of keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional

from .errors import WORK_LIMIT, BadParams, Record, charge
from .numerics import binomial_row
from .subsetsum import CubeSet

# Work units per dict update or coordinate check: fitted by timing, each
# takes about 0.2-0.7 us, so the limit admits a few seconds of steps.
_STEP_COST = 20


def _decode(key: int, radix: int, n: int) -> tuple:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        key, out[i] = divmod(key, radix)
    return tuple(out)


class MultiSumset(Record):
    """k*B with multiplicity mu(c) = number of k-tuples of B summing to c."""

    n: int
    k: int
    entries: dict  # radix-(k+2) key -> multiplicity

    __hash__ = None  # entries is a dict; value equality only

    @property
    def radix(self) -> int:
        return self.k + 2

    @property
    def support_size(self) -> int:
        return len(self.entries)

    def items(self) -> Iterator[tuple]:
        """Yield (vector, multiplicity) in ascending lexicographic order."""
        radix, n, entries = self.radix, self.n, self.entries
        for key in sorted(entries):
            yield _decode(key, radix, n), entries[key]


def iterated_sumset(
    B: CubeSet, k: int, *, budget: int = WORK_LIMIT
) -> MultiSumset:
    """Build k*B by k-1 sparse convolutions of B's indicator.

    Each round charges |k'*B| * |B| dict updates, _STEP_COST units each;
    k * |B|, a lower bound on their total, is charged before the first."""
    if k < 1:
        raise BadParams("k must be >= 1")
    radix = k + 2
    keys = B.spread(radix)
    acc = {key: 1 for key in keys}
    used = len(keys)
    charge(k * used * _STEP_COST, budget, "enumeration work")
    for _ in range(k - 1):
        used += len(acc) * len(keys)
        charge(used * _STEP_COST, budget, "enumeration work")
        nxt: dict = {}
        get = nxt.get
        for key, mult in acc.items():
            for b in keys:
                s = key + b  # no digit carries: every digit stays <= k
                nxt[s] = get(s, 0) + mult
        acc = nxt
    return MultiSumset(n=B.n, k=k, entries=acc)


class InjectivityResult(Record):
    """Whether (a, c) -> a + c is injective on A x (k*B), with a witness
    pair of distinct colliding preimages when it is not: the second pair's a
    is the lexicographically least a in A whose sum meets a smaller a's."""

    holds: bool
    witness: Optional[tuple] = None


def check_injectivity(
    A: CubeSet, B: CubeSet, k: int, *, budget: int = WORK_LIMIT
) -> InjectivityResult:
    """Decide |A + k*B| = |A| * |k*B| by exhaustive collision search."""
    if A.n != B.n:
        raise BadParams("A and B must live in the same dimension")
    ms = iterated_sumset(B, k, budget=budget)
    charge(len(A) * ms.support_size * _STEP_COST, budget, "enumeration work")
    radix, n = ms.radix, A.n
    seen: dict = {}  # sum key -> the a key that first reached it
    for akey in A.spread(radix):  # lexicographic order
        for ckey in ms.entries:
            s = akey + ckey
            prev = seen.setdefault(s, akey)
            if prev != akey:
                witness = (
                    (_decode(prev, radix, n), _decode(s - prev, radix, n)),
                    (_decode(akey, radix, n), _decode(ckey, radix, n)),
                )
                return InjectivityResult(holds=False, witness=witness)
    return InjectivityResult(holds=True)


def density_ratio_max(
    B: CubeSet, k: int, *, budget: int = WORK_LIMIT
) -> Fraction:
    """Largest density of mu_k against the product binomial measure.

    mu_k(c)/|B|^k is compared with prod_i C(k, c_i)/2^k over the support as
    cross-multiplied int pairs, and one Fraction is built for the best.
    """
    if len(B) == 0:
        raise BadParams("B must be nonempty")
    row = binomial_row(k)
    ms = iterated_sumset(B, k, budget=budget)
    radix, n = ms.radix, B.n
    best, best_den = 0, 1
    for key, mult in ms.entries.items():
        den = math.prod(row[c] for c in _decode(key, radix, n))
        if mult * best_den > best * den:
            best, best_den = mult, den
    return Fraction(best << (k * n), len(B) ** k * best_den)


def partition_total(
    A: CubeSet, B: CubeSet, k: int, *, budget: int = WORK_LIMIT
) -> Fraction:
    """Probability that a uniform a in A plus k uniform B-draws stays in
    {0,...,k+1}^n; the box always captures everything, and the value is
    computed honestly by coordinate checks rather than assumed."""
    if A.n != B.n:
        raise BadParams("A and B must live in the same dimension")
    if len(A) == 0 or len(B) == 0:
        raise BadParams("A and B must be nonempty")
    ms = iterated_sumset(B, k, budget=budget)
    charge(len(A) * ms.support_size * B.n * _STEP_COST, budget, "enumeration work")
    sumset_items = list(ms.items())
    hit = 0
    for a in A:
        for cvec, mult in sumset_items:
            if all(0 <= ai + ci <= k + 1 for ai, ci in zip(a, cvec)):
                hit += mult
    return Fraction(hit, len(A) * len(B) ** k)
