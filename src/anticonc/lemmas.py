"""Exact binomial-moment inequalities, sup-ratio expectations, the block
construction, and the exponent comparison delta <= C*sqrt(eps).

Everything checkable in exact arithmetic is checked in exact arithmetic;
transcendental right-hand sides go through interval comparison; Monte Carlo
enters only for sup-ratio instances beyond the enumeration budget, with a
counter-based generator so results never depend on scheduling.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from hashlib import blake2b
from typing import Optional

from .errors import WORK_LIMIT, BadParams, InvariantViolated, TooLarge
from .errors import Undecidable, charge
from .numerics import (
    DEFAULT_MAX_BITS,
    PI,
    BoundExpr,
    Exp,
    Mul,
    Ordering,
    Rat,
    binomial_row,
    cmp_bound,
)
from .subsetsum import ConcentrationReport, CubeSet

DEFAULT_ENUM_BUDGET = 10**7
DEFAULT_C = 20.0
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
    if k < 1 or s < 1:
        raise BadParams("k and s must be >= 1")
    bits = s * (k + 1)
    charge(bits * (k + 1) * (1 + bits // 2**14), WORK_LIMIT, "ratio moment work")
    L, ratios, weights = table = _ratio_table(k)
    return Fraction(sum(c * r**s for r, c in zip(ratios, weights)), L**s << k), table


def ratio_moment(k: int, s: int) -> Fraction:
    """Exact E[(x/(k+1-x))^s] for x ~ Bin(k), summed in integers over L^s*2^k.

    The price, fitted by timing, is the terms' (k+1)*s*(k+1) bits, charged
    once more per 2^14 bits of one term for the powers and the final gcd."""
    return _ratio_moment(k, s)[0]


@dataclass(frozen=True)
class MomentRecord:
    k: int
    s: int
    lhs: Fraction
    rhs: BoundExpr
    verdict: Verdict
    in_hypothesis: Optional[bool]


def check_initial_bound(
    k: int, s: int, *, max_bits: int = DEFAULT_MAX_BITS
) -> MomentRecord:
    """Compare the exact ratio moment against exp(10*pi*s^2/k) + 2k^s(4/5)^k.

    The hypothesis flag marks s <= k/(16*pi), decided exactly by interval
    comparison of k/(16s) with pi, and is None when the precision cap cannot
    separate the two; a failing verdict is only ever legitimate outside that
    regime.
    """
    lhs = ratio_moment(k, s)
    rhs = Exp(Mul(Rat(Fraction(10 * s * s, k)), PI)) + Rat(
        2 * k**s * Fraction(4, 5) ** k
    )
    try:
        in_hypothesis = (
            cmp_bound(Fraction(k, 16 * s), PI, max_bits=max_bits) is Ordering.GREATER
        )
    except Undecidable:
        in_hypothesis = None
    try:
        order = cmp_bound(lhs, rhs, max_bits=max_bits)
    except Undecidable:
        verdict = Verdict.UNDECIDABLE
    else:
        verdict = Verdict.HOLDS if order is not Ordering.GREATER else Verdict.FAILS
    return MomentRecord(
        k=k, s=s, lhs=lhs, rhs=rhs, verdict=verdict, in_hypothesis=in_hypothesis
    )


@dataclass(frozen=True)
class SecondMomentRecord:
    k: int
    lhs: Fraction
    mid: Fraction
    verdict: Verdict


def second_moment_identity(k: int) -> SecondMomentRecord:
    """Exactly verify the second-moment chain for Bin(k), k >= 3:
    (i) E[x^2/(k+1-x)^2] equals the shifted-index sum, (ii) it dominates
    (k+2)/k - (3k+4)/(k*2^k), and (iii) that quantity is >= 1."""
    if k < 3:
        raise BadParams("k must be >= 3")
    lhs, (L, ratios, weights) = _ratio_moment(k, 2)  # (l+1)/(k-l) is r[l+1]/L
    shifted = Fraction(sum(r * c for r, c in zip(ratios[1:], weights)), L << k)
    mid = Fraction(k + 2, k) - Fraction(3 * k + 4, k) * Fraction(1, 1 << k)
    ok = lhs == shifted and lhs >= mid and mid >= 1
    return SecondMomentRecord(
        k=k, lhs=lhs, mid=mid, verdict=Verdict.HOLDS if ok else Verdict.FAILS
    )


def _tail_sum(k: int) -> int:
    """S, the sum of C(k, x) over the tail |x - k/2| >= k/3, i.e. 3|2x-k| >= 2k."""
    return sum(c for x, c in enumerate(binomial_row(k)) if 3 * abs(2 * x - k) >= 2 * k)


def tail_check(k: int) -> Verdict:
    """Exactly verify P[|x - k/2| >= k/3] <= 2*(4/5)^k for x ~ Bin(k).

    With S the sum of C(k, x) over the tail, the bound S/2^k <= 2*(4/5)^k
    is S*5^k <= 2^(3k+1), decided in integers."""
    if k < 1:
        raise BadParams("k must be >= 1")
    return Verdict.HOLDS if _tail_sum(k) * 5**k <= 1 << (3 * k + 1) else Verdict.FAILS


def max_ratio_bound(k: int) -> Verdict:
    """Exactly verify max over l of max{C(k,l-1), C(k,l)} / C(k,l) <= k,
    as max{C(k,l-1), C(k,l)} <= k*C(k,l) for every l, in integers."""
    if k < 2:
        raise BadParams("k must be >= 2")
    row = binomial_row(k)
    ok = all(max(prev, c) <= k * c for prev, c in zip([0] + row, row))
    return Verdict.HOLDS if ok else Verdict.FAILS


def _limbs(n: int, k: int) -> int:
    """64-bit limbs of one padded sup-ratio product, at most (k*L)^n: its
    bits are below n*(1.5(k+1) + bits of k), as log2 lcm(1..k+1) < 1.5(k+1).
    Taken from n and k alone, so nothing is built before it is charged."""
    return 1 + n * (3 * (k + 1) // 2 + k.bit_length()) // 64


def _sup_ratio(A: CubeSet, k: int) -> tuple:
    """D = L^n, C(k, x), and sup(x): D times the max over a in A of the
    product of the coordinate ratios on a's support (0 for an empty A), as
    an int, each product padded by L^(n-|a|)."""
    L, ratios, weights = _ratio_table(k)
    supports = [([i for i, ai in enumerate(a) if ai], L ** (A.n - sum(a))) for a in A]

    def sup(x) -> int:
        products = (pad * math.prod(ratios[x[i]] for i in sup_idx)
                    for sup_idx, pad in supports)
        return max(products, default=0)

    return L**A.n, weights, sup


def sup_ratio_exact(
    A: CubeSet, k: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> Fraction:
    """Exact E over x ~ Bin(k)^n of sup_{a in A} of the shifted-mass ratio.

    Full enumeration of {0,...,k}^n, summed in integers over L^n*2^(kn) with
    product binomial weights; the integrand is also checked pointwise
    against its k^n cap.  Each point takes |A| + 1 products, one per support
    and one for its weight, and (k+1)^n * (|A| + 1) times their 64-bit limbs
    is charged first."""
    if k < 1:
        raise BadParams("k must be >= 1")
    n = A.n
    work = (k + 1) ** n * (len(A) + 1) * _limbs(n, k)
    charge(work, budget, "(k+1)^n * (|A|+1) products * limbs")
    den, weights, sup = _sup_ratio(A, k)
    cap = k**n * den
    total = 0
    for x in itertools.product(range(k + 1), repeat=n):
        s = sup(x)
        if s > cap:
            raise InvariantViolated(
                f"integrand {Fraction(s, den)} exceeds k^n = {k**n}", witness=x
            )
        total += math.prod(weights[xi] for xi in x) * s
    return Fraction(total, den << k * n)


def cube_set_id(A: CubeSet) -> str:
    """Stable short identifier of a cube set's exact contents."""
    h = blake2b(digest_size=8)
    h.update(struct.pack(">I", A.n))
    for v in A:
        h.update(bytes(v))
    return h.hexdigest()


_BLOCK_BITS = 512


def _binomial_draw(seed: int, sample: int, coord: int, k: int) -> int:
    """Bin(k) draw from k fair hash bits keyed by (seed, sample, coordinate).

    Counter-based: any sample can be generated in isolation, so parallel
    schedules and replays always see identical streams.
    """
    x = 0
    remaining = k
    block = 0
    while remaining > 0:
        digest = blake2b(
            struct.pack(">QQQQ", seed & (2**64 - 1), sample, coord, block),
            digest_size=64,
        ).digest()
        take = min(remaining, _BLOCK_BITS)
        bits = int.from_bytes(digest, "big") >> (_BLOCK_BITS - take)
        x += bits.bit_count()
        remaining -= take
        block += 1
    return x


@dataclass(frozen=True)
class SupRatioEstimate:
    n: int
    k: int
    a_set_id: str
    mean: float
    std_error: float
    samples: int


def sup_ratio_mc(A: CubeSet, k: int, samples: int, seed: int) -> SupRatioEstimate:
    """Monte Carlo estimate of the sup-ratio expectation.

    Accumulation is exact, in integers over one common denominator, so the
    reported mean and standard error are bit-identical for a given
    (seed, samples) no matter how the work would be scheduled.  The work,
    samples * n * |A| times the 64-bit limbs of a product, is refused beyond
    WORK_LIMIT.
    """
    if k < 1:
        raise BadParams("k must be >= 1")
    if samples < 1:
        raise BadParams("samples must be >= 1")
    n = A.n
    charge(samples * n * len(A) * _limbs(n, k), WORK_LIMIT, "Monte Carlo work")
    den, _, sup = _sup_ratio(A, k)
    s1 = s2 = 0
    for t in range(samples):
        v = sup([_binomial_draw(seed, t, i, k) for i in range(n)])
        s1 += v
        s2 += v * v
    # variance/samples over den^2, with spread 0 at one sample; int/int rounds once
    spread = samples * s2 - s1 * s1
    std_error = math.sqrt(spread / (samples**2 * max(samples - 1, 1) * den**2))
    return SupRatioEstimate(
        n=n,
        k=k,
        a_set_id=cube_set_id(A),
        mean=s1 / (samples * den),
        std_error=std_error,
        samples=samples,
    )


@dataclass(frozen=True)
class SupRatioBoundReport:
    n: int
    k: int
    c: float
    delta: float
    method: str
    value: float
    std_error: float
    bound: float
    margin: float
    holds: bool
    exact: Optional[Fraction] = None
    samples: Optional[int] = None
    seed: Optional[int] = None


def check_sup_ratio_bound(
    A: CubeSet,
    k: int,
    C: float = DEFAULT_C,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
    samples: int = 10**5,
    seed: int = 0,
) -> SupRatioBoundReport:
    """Compare the sup-ratio expectation against exp(C*(1/k + sqrt(d/k))*n)
    where d = ln|A|/n.  The constant is a free parameter, so the outcome is
    reported with its margin rather than asserted; a bound beyond the float
    range raises TooLarge."""
    if len(A) < 1:
        raise BadParams("A must be nonempty")
    if k < 1:
        raise BadParams("k must be >= 1")
    if not math.isfinite(C):
        raise BadParams(f"C must be finite, not {C}")
    n = A.n
    delta = math.log(len(A)) / n
    exponent = C * (1 / k + math.sqrt(delta / k)) * n
    if exponent > _LOG_FLOAT_MAX:
        raise TooLarge(f"bound exp({exponent:.6g}) is outside the float range")
    bound = math.exp(exponent)
    try:
        exact = sup_ratio_exact(A, k, budget=budget)
        method, value, std_error, mc = "exact", float(exact), 0.0, {}
    except TooLarge:  # the exact products beyond the enumeration budget
        exact, est = None, sup_ratio_mc(A, k, samples, seed)
        method, value, std_error = "mc", est.mean, est.std_error
        mc = {"samples": samples, "seed": seed}
    return SupRatioBoundReport(
        n=n,
        k=k,
        c=C,
        delta=delta,
        method=method,
        value=value,
        std_error=std_error,
        bound=bound,
        margin=bound - value,
        holds=value <= bound,
        exact=exact,
        **mc,
    )


@dataclass(frozen=True)
class BlockParams:
    n: int
    k: int
    weights: tuple


def block_construction(n: int, k: int) -> BlockParams:
    """The n/k-block vector: value (k+1)^(i-1) repeated k times per block.

    Base k+1 makes each block occupy its own digit: a block of k equal
    weights contributes 0..k to one digit with no carries, so blocks never
    interact."""
    if n < 1 or k < 1:
        raise BadParams("n and k must be >= 1")
    if n % k:
        raise BadParams(f"k={k} must divide n={n}")
    weights = []
    for i in range(n // k):
        weights.extend([(k + 1) ** i] * k)
    return BlockParams(n=n, k=k, weights=tuple(weights))


@dataclass(frozen=True)
class BlockTheory:
    rho: Fraction
    range_size: int


def block_theory(n: int, k: int) -> BlockTheory:
    """Closed-form rho and range for the block vector, from digit
    independence: each block has the Bin(k) profile on its own digit."""
    if n < 1 or k < 1:
        raise BadParams("n and k must be >= 1")
    if n % k:
        raise BadParams(f"k={k} must divide n={n}")
    blocks = n // k
    rho = Fraction(math.comb(k, k // 2), 1 << k) ** blocks
    return BlockTheory(rho=rho, range_size=(k + 1) ** blocks)


@dataclass(frozen=True)
class TheoremCheck:
    delta: float
    epsilon: float
    bound: float
    holds: bool


def theorem_check(rep: ConcentrationReport, C: float = DEFAULT_C) -> TheoremCheck:
    """Report whether delta <= C*sqrt(eps), with eps clamped below at 1/n^2
    (outside that range the exponent relation is vacuous)."""
    if not math.isfinite(C):
        raise BadParams(f"C must be finite, not {C}")
    eps = max(rep.epsilon, 1.0 / rep.n**2)
    bound = C * math.sqrt(eps)
    return TheoremCheck(
        delta=rep.delta, epsilon=eps, bound=bound, holds=rep.delta <= bound
    )
