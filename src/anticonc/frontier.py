"""Exhaustive canonical sweep of small weight vectors over the (eps, delta)
plane, the per-eps Pareto subset, and the audit of the universal bound.

Negation, permutation, and scaling leave (rho, |R|) unchanged, so only
nondecreasing gcd-reduced nonnegative vectors are evaluated.  The sweep is
one depth-first walk over the nondecreasing vectors in one process: each
child's count polynomial is its parent's plus one shift-add, and a leaf
reads its largest count and its number of nonzero slots straight from the
polynomial's slots, in ``subsetsum``'s format.  Leaves come out in
lexicographic order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import WORK_LIMIT, BadParams, InvariantViolated, charge
from .lemmas import DEFAULT_C, clamped_eps
from .subsetsum import _exponents, _read_slots, _slot_format, _subset_sums

# A leaf whose table has more than this many slots per subset enumerates its
# 2^n sums instead: reading a table far wider than 2^n costs more.
_SLOTS_PER_SUBSET = 16
# The sweep's price of one leaf, in table bytes: fitted by timing, a leaf
# costs about 10 us and an internal node at most about 20 ns per table byte.
_LEAF_COST = 500


@dataclass(frozen=True)
class FrontierPoint:
    weights: tuple
    rho: Fraction
    range_size: int
    epsilon: float
    delta: float


@dataclass(frozen=True)
class SweepConfig:
    """``workers`` is validated and recorded but changes nothing: the sweep
    runs in one process."""

    n: int
    max_weight: int
    workers: int = 1
    budget: int = WORK_LIMIT

    def __post_init__(self):
        if self.n < 1:
            raise BadParams("n must be >= 1")
        if self.max_weight < 0:
            raise BadParams("max_weight must be >= 0")
        if self.workers < 1:
            raise BadParams("workers must be >= 1")


def _sweep_work(n: int, top: int, width: int, limit: int) -> int:
    """The price of the walk: the table bytes of its internal nodes plus
    _LEAF_COST per leaf.  Depth j holds C(top+j, j) nodes of mean span
    j*top/2 (x -> top-x pairs them), each table width*(span+1) bytes, and
    the leaves number C(top+n, n).  The sum stops once it passes limit."""
    nodes, work = 1, 0  # the root, whose table is never shifted
    for j in range(1, n):
        nodes = nodes * (top + j) // j
        work += nodes * width * (j * top + 2) // 2
        if work > limit:
            return work
    return work + _LEAF_COST * (nodes * (top + n) // n)


def sweep_points(cfg: SweepConfig) -> list:
    """Evaluate every canonical vector, in lexicographic order.

    The walk visits every nondecreasing vector, canonical or not, since a
    prefix with gcd > 1 can still end in a canonical leaf.  Each node packs
    prod(1 + x^w_i) as ``profile_dp`` does; a leaf whose table would be far
    wider than 2^n enumerates its sums instead.  The walk is priced up front
    against cfg.budget (see ``_sweep_work``): every internal node's table
    bytes, which also cover copying its prefix, plus _LEAF_COST per leaf.
    """
    n, top = cfg.n, cfg.max_weight
    width, typecode = _slot_format(n)
    charge(_sweep_work(n, top, width, cfg.budget), cfg.budget, "sweep work")
    total = 1 << n
    bits = 8 * width
    points = []
    stack = [((), 0, 1, 0, 0)]  # prefix, its last entry, polynomial, gcd, span
    while stack:
        prefix, lo, poly, g, span = stack.pop()
        if len(prefix) < n - 1:  # children pushed in reverse, so popped in order
            stack.extend(
                (prefix + (x,), x, poly + (poly << bits * x), math.gcd(g, x), span + x)
                for x in range(top, lo - 1, -1)
            )
            continue
        for x in range(lo, top + 1):
            if math.gcd(g, x) > 1:
                continue
            w = prefix + (x,)
            size = span + x + 1  # slots in the leaf's table
            if size > _SLOTS_PER_SUBSET * total:
                counts = Counter(_subset_sums(w, n))
                peak, range_size = max(counts.values()), len(counts)
            else:
                leaf = poly + (poly << bits * x)
                slots = _read_slots(leaf, size, width, typecode)
                if sum(slots) != total:
                    raise InvariantViolated(
                        f"the slots of {w} do not total 2^{n}", witness=w
                    )
                peak, range_size = max(slots), size - slots.count(0)
            rho = Fraction(peak, total)
            epsilon, delta = _exponents(rho, range_size, n)
            points.append(FrontierPoint(w, rho, range_size, epsilon, delta))
    return points


def pareto_subset(points: Sequence) -> list:
    """The delta-maximal point at each attained eps, keyed by exact rho;
    lexicographic weight order breaks ties and orders the output."""
    best: dict = {}
    for p in points:
        cur = best.get(p.rho)
        if cur is None or p.range_size > cur.range_size:
            best[p.rho] = p
    return sorted(best.values(), key=lambda p: p.weights)


@dataclass(frozen=True)
class AuditReport:
    points: int
    max_delta_over_eps: float
    argmax_delta_over_eps: tuple
    max_delta_over_sqrt_eps: float
    argmax_delta_over_sqrt_eps: tuple
    exceeding_2eps: tuple
    within_c: bool


def delta_over_eps(p: FrontierPoint) -> float:
    # eps = 0 forces w = 0^n, where delta = 0 too; the ratio is 1 by convention
    return 1.0 if p.rho == 1 else p.delta / p.epsilon


def delta_over_sqrt_eps(p: FrontierPoint) -> float:
    return p.delta / math.sqrt(clamped_eps(p.epsilon, len(p.weights)))


def audit(points: Sequence, C: float = DEFAULT_C) -> AuditReport:
    """Assert |R|*rho >= 1 (delta >= eps) exactly for every point; report the
    extreme exponent ratios and any point beyond delta = 2*eps.

    The 2*eps comparison is exact (|R|*rho^2 vs 1) and is reported only:
    small n legitimately exceeds it.
    """
    if not points:
        raise BadParams("audit needs at least one point")
    if not math.isfinite(C):
        raise BadParams(f"C must be finite, not {C}")
    best_ratio = best_sqrt = -1.0
    arg_ratio = arg_sqrt = None
    exceeding = []
    for p in points:
        num, den = p.rho.numerator, p.rho.denominator
        if p.range_size * num < den:
            raise InvariantViolated(
                f"|R|*rho < 1 at {p.weights}: {p.range_size} * {p.rho}",
                witness=p,
            )
        r = delta_over_eps(p)
        if r > best_ratio:
            best_ratio, arg_ratio = r, p.weights
        rs = delta_over_sqrt_eps(p)
        if rs > best_sqrt:
            best_sqrt, arg_sqrt = rs, p.weights
        if p.range_size * num * num > den * den:
            exceeding.append(p.weights)
    return AuditReport(
        points=len(points),
        max_delta_over_eps=best_ratio,
        argmax_delta_over_eps=arg_ratio,
        max_delta_over_sqrt_eps=best_sqrt,
        argmax_delta_over_sqrt_eps=arg_sqrt,
        exceeding_2eps=tuple(exceeding),
        within_c=best_sqrt <= C,
    )
