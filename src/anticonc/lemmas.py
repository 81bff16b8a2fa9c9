"""Exact binomial-moment inequalities, sup-ratio expectations, the block
construction, and the exponent comparison delta <= C*sqrt(eps).

Everything checkable in exact arithmetic is checked in exact arithmetic;
transcendental right-hand sides go through interval comparison; Monte Carlo
enters only for sup-ratio instances beyond the enumeration budget, with a
counter-based generator so results never depend on scheduling.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import partial, reduce
from itertools import compress, repeat
from typing import Optional

from .errors import DEFAULT_C, DEFAULT_ENUM_BUDGET, WORK_LIMIT, BadParams, InvariantViolated
from .errors import Record, TooLarge, Undecidable, at_least, budget, charge, finite
from .numerics import PI, BoundExpr, Exp, Mul, Ordering, Rat, binomial_row, cmp_bound

# CubeSet and ConcentrationReport (subsetsum) appear only in annotations, which
# are never evaluated, and theorem_check imports clamped_eps when it runs, so
# the checks that take neither do not load subsetsum.

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDECIDABLE = "undecidable"


def _ratio_table(k: int) -> tuple:
    """L = lcm(1..k+1), the ints r[x] = x*L/(k+1-x) and C(k, x): the Bin(k)
    ratio x/(k+1-x) is r[x]/L and P[Bin(k) = x] is C(k, x)/2^k.  The ratios
    hold about 1.44k bits each, as many as the row's price covers."""
    weights = binomial_row(k)
    L = math.lcm(*range(1, k + 2))
    return L, [x * (L // (k + 1 - x)) for x in range(k + 1)], weights


def _ratio_moment(k: int, s: int) -> tuple:
    """The moment of ``ratio_moment`` and the ratio table it was summed from."""
    at_least(1, k=k, s=s)
    bits = s * (k + 1)
    charge(bits * (k + 1) * (1 + bits // 2**14), WORK_LIMIT, "ratio moment work")
    L, ratios, weights = table = _ratio_table(k)
    return Fraction(sum(c * r**s for r, c in zip(ratios, weights)), L**s << k), table


def ratio_moment(k: int, s: int) -> Fraction:
    """Exact E[(x/(k+1-x))^s] for x ~ Bin(k), summed in integers over L^s*2^k.

    The price, fitted by timing, is the terms' (k+1)*s*(k+1) bits, charged
    once more per 2^14 bits of one term for the powers and the final gcd."""
    return _ratio_moment(k, s)[0]


class MomentRecord(Record):
    lhs: Fraction
    rhs: BoundExpr
    verdict: Verdict
    in_hypothesis: Optional[bool]


def check_initial_bound(k: int, s: int) -> MomentRecord:
    """Compare the exact ratio moment against exp(10*pi*s^2/k) + 2k^s(4/5)^k.

    The hypothesis flag marks s <= k/(16*pi), decided exactly by interval
    comparison of k/(16s) with pi, and is None when the precision cap
    (``precision_cap_bits`` of the ``errors.work_limit`` scope) cannot
    separate the two; a failing verdict is only ever legitimate outside that
    regime.
    """
    lhs = ratio_moment(k, s)
    rhs = Exp(Mul(Rat(Fraction(10 * s * s, k)), PI)) + Rat(
        2 * k**s * Fraction(4, 5) ** k
    )
    try:
        in_hypothesis = cmp_bound(Fraction(k, 16 * s), PI) is Ordering.GREATER
    except Undecidable:
        in_hypothesis = None
    try:
        order = cmp_bound(lhs, rhs)
    except Undecidable:
        verdict = Verdict.UNDECIDABLE
    else:
        verdict = Verdict.HOLDS if order is not Ordering.GREATER else Verdict.FAILS
    return MomentRecord(lhs=lhs, rhs=rhs, verdict=verdict, in_hypothesis=in_hypothesis)


class SecondMomentRecord(Record):
    lhs: Fraction
    mid: Fraction
    verdict: Verdict


def second_moment_identity(k: int) -> SecondMomentRecord:
    """Exactly verify the second-moment chain for Bin(k), k >= 3:
    (i) E[x^2/(k+1-x)^2] equals the shifted-index sum, (ii) it dominates
    (k+2)/k - (3k+4)/(k*2^k), and (iii) that quantity is >= 1."""
    at_least(3, k=k)
    lhs, (L, ratios, weights) = _ratio_moment(k, 2)  # (l+1)/(k-l) is r[l+1]/L
    shifted = Fraction(sum(r * c for r, c in zip(ratios[1:], weights)), L << k)
    mid = Fraction(k + 2, k) - Fraction(3 * k + 4, k) * Fraction(1, 1 << k)
    ok = lhs == shifted and lhs >= mid and mid >= 1
    return SecondMomentRecord(lhs, mid, Verdict.HOLDS if ok else Verdict.FAILS)


def _tail_sum(k: int) -> int:
    """S, the sum of C(k, x) over the tail |x - k/2| >= k/3, i.e. 3|2x-k| >= 2k."""
    return sum(c for x, c in enumerate(binomial_row(k)) if 3 * abs(2 * x - k) >= 2 * k)


def tail_check(k: int) -> Verdict:
    """Exactly verify P[|x - k/2| >= k/3] <= 2*(4/5)^k for x ~ Bin(k).

    With S the sum of C(k, x) over the tail, the bound S/2^k <= 2*(4/5)^k
    is S*5^k <= 2^(3k+1), decided in integers."""
    at_least(1, k=k)
    return Verdict.HOLDS if _tail_sum(k) * 5**k <= 1 << (3 * k + 1) else Verdict.FAILS


def max_ratio_bound(k: int) -> Verdict:
    """Exactly verify max over l of max{C(k,l-1), C(k,l)} / C(k,l) <= k,
    as max{C(k,l-1), C(k,l)} <= k*C(k,l) for every l, in integers."""
    at_least(2, k=k)
    row = binomial_row(k)
    ok = all(max(prev, c) <= k * c for prev, c in zip([0] + row, row))
    return Verdict.HOLDS if ok else Verdict.FAILS


def _limbs(n: int, k: int) -> int:
    """64-bit limbs of one padded sup-ratio product, at most (k*L)^n: its
    bits are below n*(1.5(k+1) + bits of k), as log2 lcm(1..k+1) < 1.5(k+1).
    Taken from n and k alone, so nothing is built before it is charged."""
    return 1 + n * (3 * (k + 1) // 2 + k.bit_length()) // 64


def _supports(A: CubeSet, L: int) -> list:
    """Each a in A as its pad L^(n-|a|) and its 0/1 coordinates."""
    return [(L ** (A.n - sum(a)), a) for a in A]


def _inner_products(factors: list, bits) -> list:
    """Over the points of {0..k}^len(bits) in product order, the product of
    factors[x_i] over the coordinates i whose bit is set."""
    out = [1]
    for b in bits:
        out = [p * f for p in out for f in factors] if b else [
            p for p in out for _ in factors]
    return out


_INNER_POINTS = 256  # points of the inner block of sup_ratio_exact's walk


def sup_ratio_exact(A: CubeSet, k: int) -> Fraction:
    """Exact E over x ~ Bin(k)^n of sup_{a in A} of the shifted-mass ratio.

    Full enumeration of {0,...,k}^n, summed in integers over L^n*2^(kn) with
    product binomial weights; the integrand is also checked pointwise
    against its k^n cap, and the first point over it in product order is the
    witness.  Each point takes |A| + 1 products, one per support and one for
    its weight, and (k+1)^n * (|A| + 1) times their 64-bit limbs is charged
    first, against ``budget(DEFAULT_ENUM_BUDGET)``.

    The walk is depth first over the leading coordinates, carrying each a's
    partial product and the weight product, so points sharing a prefix share
    that work.  The last coordinates form an inner block of at most
    _INNER_POINTS points (or one coordinate), whose products are tabulated
    once per pattern of a's bits there; the a's sharing a pattern enter the
    block as one row, the largest of their partial products."""
    at_least(1, k=k)
    n = A.n
    work = (k + 1) ** n * (len(A) + 1) * _limbs(n, k)
    charge(work, budget(DEFAULT_ENUM_BUDGET), "(k+1)^n * (|A|+1) products * limbs")
    L, ratios, weights = _ratio_table(k)
    if not A:
        return Fraction(0)
    den = L**n
    cap = k**n * den
    inner = min(n, 1)
    while inner < n and (k + 1) ** (inner + 1) <= _INNER_POINTS:
        inner += 1
    head = n - inner
    supports = _supports(A, L)
    columns = [[bits[d] for _, bits in supports] for d in range(head)]
    rows = {}  # a's bits on the inner block -> the indices of those a
    for j, (_, bits) in enumerate(supports):
        rows.setdefault(bits[head:], []).append(j)
    row_products = [_inner_products(ratios, pattern) for pattern in rows]
    inner_weights = _inner_products(weights, [1] * inner)
    total = 0

    def walk(prefix: tuple, partial: list, weight: int) -> None:
        nonlocal total
        d = len(prefix)
        if d < head:
            bits = columns[d]
            for x, (r, c) in enumerate(zip(ratios, weights)):
                walk(prefix + (x,), [p * r if b else p for p, b in zip(partial, bits)],
                     weight * c)
            return
        tops = [max(map(partial.__getitem__, members)) for members in rows.values()]
        block = [[top * q for q in qs] for top, qs in zip(tops, row_products)]
        sups = list(map(max, *block)) if len(block) > 1 else block[0]
        if max(sups) > cap:
            at = next(i for i, s in enumerate(sups) if s > cap)
            digits = [at // (k + 1) ** e % (k + 1) for e in reversed(range(inner))]
            raise InvariantViolated(
                f"integrand {Fraction(sups[at], den)} exceeds k^n = {k**n}",
                witness=prefix + tuple(digits),
            )
        total += weight * sum(map(operator.mul, inner_weights, sups))

    walk((), [pad for pad, _ in supports], 1)
    return Fraction(total, den << k * n)


_BLOCK_BITS = 512
_WORDS = struct.Struct(">QQ")  # a block's message: (seed, sample), (coordinate, block)


def _draw_column(heads: list, coord: int, k: int) -> list:
    """The Bin(k) draw at one coordinate for each sample, from k fair hash
    bits keyed by (seed, sample, coordinate); ``heads`` are the samples'
    packed (seed, sample) words.  Each 512 bits are the first bits of one
    64-byte blake2b digest (blake2b's default size) of the words (seed,
    sample, coordinate, block); for k <= 8 one digest byte is read without
    int.from_bytes (a fifth of a draw's time)."""
    from hashlib import blake2b  # loads OpenSSL: only the draws pay for it
    column = None
    for block, lo in enumerate(range(0, k, _BLOCK_BITS)):
        take = min(k - lo, _BLOCK_BITS)
        nbytes = -(-take // 8)
        shift, tail = 8 * nbytes - take, _WORDS.pack(coord, block)
        digests = [blake2b(head + tail).digest() for head in heads]
        if nbytes == 1:
            tops = [d[0] >> shift for d in digests]
        else:
            tops = [int.from_bytes(d[:nbytes], "big") >> shift for d in digests]
        bits = list(map(int.bit_count, tops))
        column = bits if column is None else list(map(operator.add, column, bits))
    return column


def _heads(seed: int, samples) -> list:
    return [_WORDS.pack(seed & (2**64 - 1), t) for t in samples]


def _binomial_draw(seed: int, sample: int, coord: int, k: int) -> int:
    """One sample's ``_draw_column``.  Counter-based: any sample can be
    generated in isolation, so parallel schedules and replays always see
    identical streams."""
    return _draw_column(_heads(seed, (sample,)), coord, k)[0]


# units per blake2b block: fitted by timing, a draw-bound estimate costs about
# 0.5-0.6 us per block and a product-bound one 6-13 ns per limb unit (57 ns
# at k = 2235, where a product has 106 limbs)
_DRAW_COST = 32
_CHUNK = 1 << 10  # samples drawn at once by sup_ratio_mc
_POINTS = 1 << 14  # distinct sampled points it holds before their sups are summed


def _point_counts(seed: int, samples: int, n: int, k: int):
    """The sampled points of {0..k}^n with their multiplicities, as Counters
    of at most _POINTS + _CHUNK distinct points each."""
    counts = Counter()
    for lo in range(0, samples, _CHUNK):
        chunk = range(lo, min(lo + _CHUNK, samples))
        heads = _heads(seed, chunk)  # packed once for all n coordinates
        counts.update(zip(*(_draw_column(heads, i, k) for i in range(n)))
                      if n else [()] * len(chunk))
        if len(counts) >= _POINTS:
            yield counts
            counts = Counter()
    yield counts


class SupRatioEstimate(Record):
    mean: float
    std_error: float


def sup_ratio_mc(A: CubeSet, k: int, samples: int, seed: int) -> SupRatioEstimate:
    """Monte Carlo estimate of the sup-ratio expectation.

    Accumulation is exact, in integers over one common denominator, so the
    reported mean and standard error are bit-identical for a given
    (seed, samples) no matter how the work would be scheduled: each distinct
    sampled point's sup is taken once and added as often as it was drawn.
    The sups are taken column by column over all the distinct points at
    once, in C: each support's products multiply its ratio columns first and
    its pad L^(n-|a|) last, so a product takes one small ratio at a time and
    the pad, often its largest factor, once; each row folds into the running
    sups before the next is made.
    The work, samples * n * |A| times the 64-bit limbs of a product plus
    _DRAW_COST per blake2b block of the samples * n draws, plus limbs^1.6
    per sample for squaring its sup (Karatsuba: fitted by timing, all three
    cost 10-40 ns a unit), is refused beyond WORK_LIMIT before the first draw.
    """
    at_least(1, k=k)
    at_least(1, samples=samples)
    n, limbs = A.n, _limbs(A.n, k)
    per_draw = len(A) * limbs + _DRAW_COST * -(-k // _BLOCK_BITS)
    work = samples * (n * per_draw + int(limbs**1.6))
    charge(work, WORK_LIMIT, "Monte Carlo products and draws")
    L, ratios, _ = _ratio_table(k)
    den = L**n
    supports = _supports(A, L)
    s1 = s2 = 0
    for counts in _point_counts(seed, samples, n, k):
        columns = [[ratios[x] for x in xs] for xs in zip(*counts)]
        sups = [0] * len(counts)
        for pad, bits in supports:  # the small ratios multiplied first, the pad last
            row = reduce(partial(map, operator.mul), [*compress(columns, bits), repeat(pad)])
            sups = [s if s > v else v for s, v in zip(sups, row)]  # map(max) takes 4x as long
        cv = list(map(operator.mul, counts.values(), sups))
        s1 += sum(cv)
        s2 += sum(map(operator.mul, cv, sups))
    # variance/samples over den^2, with spread 0 at one sample; int/int rounds once
    spread = samples * s2 - s1 * s1
    std_error = math.sqrt(spread / (samples**2 * max(samples - 1, 1) * den**2))
    return SupRatioEstimate(
        mean=s1 / (samples * den),
        std_error=std_error,
    )


class SupRatioBoundReport(Record):
    delta: float
    method: str
    value: float
    std_error: float
    bound: float
    margin: float
    holds: bool
    exact: Optional[Fraction] = None


def check_sup_ratio_bound(
    A: CubeSet, k: int, C: float = DEFAULT_C, *, samples: int = 10**5, seed: int = 0
) -> SupRatioBoundReport:
    """Compare the sup-ratio expectation against exp(C*(1/k + sqrt(d/k))*n)
    where d = ln|A|/n, exactly when ``sup_ratio_exact`` is within its limit
    and by ``sup_ratio_mc`` otherwise.  The constant is a free parameter, so
    the outcome is reported with its margin rather than asserted; a bound
    beyond the float range raises TooLarge."""
    if len(A) < 1 or A.n < 1:
        raise BadParams("A must be a nonempty set in n >= 1 dimensions")
    at_least(1, k=k)
    finite(C)
    n = A.n
    delta = math.log(len(A)) / n
    exponent = C * (1 / k + math.sqrt(delta / k)) * n
    if exponent > _LOG_FLOAT_MAX:
        raise TooLarge(f"bound exp({exponent:.6g}) is outside the float range")
    bound = math.exp(exponent)
    try:
        exact = sup_ratio_exact(A, k)
        method, value, std_error = "exact", float(exact), 0.0
    except TooLarge:  # the exact products beyond the enumeration budget
        exact, est = None, sup_ratio_mc(A, k, samples, seed)
        method, value, std_error = "mc", est.mean, est.std_error
    return SupRatioBoundReport(
        delta=delta,
        method=method,
        value=value,
        std_error=std_error,
        bound=bound,
        margin=bound - value,
        holds=value <= bound,
        exact=exact,
    )


# Work units per block vector entry.  ``profile`` reads and refuses a vector
# past its caps in about 0.2 us an entry (timed at n = 10^5 to 6*10^5); 150
# units, about 1.5 us, keep every ``construct block`` refusal where it was.
_ENTRY_COST = 150


def _block_count(n: int, k: int) -> int:
    """The n/k blocks of an n/k-block shape, refused unless k divides n."""
    at_least(1, n=n, k=k)
    if n % k:
        raise BadParams(f"k={k} must divide n={n}")
    return n // k


def block_construction(n: int, k: int) -> tuple:
    """The n/k-block vector: value (k+1)^(i-1) repeated k times per block.

    Base k+1 makes each block occupy its own digit: a block of k equal
    weights contributes 0..k to one digit with no carries, so blocks never
    interact.  Its n entries, _ENTRY_COST each, and its n/k distinct weights'
    bits, about bits(k) * (n/k)^2 / 2, are charged before it is built."""
    blocks = _block_count(n, k)
    work = n * _ENTRY_COST + k.bit_length() * blocks**2 // 2
    charge(work, WORK_LIMIT, "block vector entries and weight bits")
    weights = []
    for i in range(blocks):
        weights.extend([(k + 1) ** i] * k)
    return tuple(weights)


class BlockTheory(Record):
    rho: Fraction
    range_size: int
    delta_over_eps: float


def block_theory(n: int, k: int) -> BlockTheory:
    """Closed-form rho, range and delta/eps = ln(k+1)/(k ln 2 - ln C(k, k/2))
    for the block vector, from digit independence: each block has the Bin(k)
    profile on its own digit.  C(k, k/2) is charged (k+1)^2, as the Bin(k)
    row is, and rho's 2^n denominator n more, before either is computed."""
    blocks = _block_count(n, k)
    charge((k + 1) ** 2 + n, WORK_LIMIT, "C(k, k/2) and rho bits (k+1)^2 + n")
    halfmax = math.comb(k, k // 2)
    ratio = math.log(k + 1) / (k * math.log(2) - math.log(halfmax))
    return BlockTheory(Fraction(halfmax, 1 << k) ** blocks, (k + 1) ** blocks, ratio)


class TheoremCheck(Record):
    epsilon: float
    bound: float
    holds: bool


def theorem_check(rep: ConcentrationReport, C: float = DEFAULT_C) -> TheoremCheck:
    """Report whether delta <= C*sqrt(eps), with eps clamped (``clamped_eps``)."""
    from .subsetsum import clamped_eps
    finite(C)
    eps = clamped_eps(rep.epsilon, rep.n)
    bound = C * math.sqrt(eps)
    return TheoremCheck(epsilon=eps, bound=bound, holds=rep.delta <= bound)
