"""Exhaustive canonical sweep of small weight vectors over the (eps, delta)
plane, the per-eps Pareto subset, and the audit of the universal bound.

Negation, permutation, and scaling leave (rho, |R|) unchanged, so only
nondecreasing gcd-reduced nonnegative vectors are evaluated.  The sweep is
one depth-first walk over the nondecreasing vectors in one process: each
child's count polynomial is its parent's plus one shift-add, and its support
mask (bit j set for each nonzero slot j, exact since no count is negative)
its parent's or-ed with one shift.  A leaf reads its largest count from the
lower half of its slots, a palindrome in ``subsetsum``'s format, and |R| as
its mask's bit count.  Leaves come out in lexicographic order.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .errors import DEFAULT_C, BadParams, InvariantViolated, Record, at_least, budget
from .errors import charge, finite
from .subsetsum import _exponents, _read_slots, _slot_format, _subset_sums, clamped_eps

# A leaf whose table has more than this many slots per subset enumerates its
# 2^n sums instead: reading a table far wider than 2^n costs more.
_SLOTS_PER_SUBSET = 16
# The sweep's price of one leaf, in table bytes: 10 us at the 20 ns per byte an
# internal node costs at most.  A leaf takes 3.4-4.8 us (n = 7, 8, weights <= 12);
# the price stays so that no refusal moves.
_LEAF_COST = 500


class FrontierPoint(Record):
    __slots__ = ("weights", "rho", "range_size", "epsilon", "delta")
    weights: tuple
    rho: Fraction
    range_size: int
    epsilon: float
    delta: float


_SET_FIELDS = tuple(getattr(FrontierPoint, f).__set__ for f in FrontierPoint.__slots__)


def _new_point(weights, rho, range_size, epsilon, delta) -> FrontierPoint:
    """A FrontierPoint set through its slot descriptors, not ``Record.__init__``
    (0.5 against 2.3 us on CPython 3.11): one per sweep leaf."""
    p = object.__new__(FrontierPoint)
    set_w, set_rho, set_size, set_eps, set_delta = _SET_FIELDS
    set_w(p, weights)
    set_rho(p, rho)
    set_size(p, range_size)
    set_eps(p, epsilon)
    set_delta(p, delta)
    return p


class SweepConfig(Record):
    """``workers`` is validated and recorded but changes nothing: the sweep
    runs in one process."""

    n: int
    max_weight: int
    workers: int = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        at_least(1, n=self.n)
        at_least(0, max_weight=self.max_weight)
        at_least(1, workers=self.workers)


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
    against ``budget()`` (see ``_sweep_work``): every internal node's table
    bytes, which also cover copying its prefix, plus _LEAF_COST per leaf.
    """
    n, top, limit = cfg.n, cfg.max_weight, budget()
    width, typecode = _slot_format(n)
    charge(_sweep_work(n, top, width, limit), limit, "sweep work")
    total = 1 << n
    bits = 8 * width
    points, answers = [], {}  # (peak, |R|) -> fields, computed once per pair
    stack = [((), 0, 1, 1, 0)]  # prefix, its last entry, polynomial, support, gcd
    while stack:
        prefix, lo, poly, supp, g = stack.pop()
        if len(prefix) < n - 1:  # children pushed in reverse, so popped in order
            stack.extend(
                (prefix + (x,), x, poly + (poly << bits * x), supp | supp << x,
                 math.gcd(g, x))
                for x in range(top, lo - 1, -1)
            )
            continue
        for x in range(lo, top + 1):
            if math.gcd(g, x) > 1:
                continue
            w = prefix + (x,)
            support = supp | supp << x
            size = support.bit_length()  # slots in the leaf's table, the last for sum(w)
            if size > _SLOTS_PER_SUBSET * total:
                counts = Counter(_subset_sums(w))
                peak, range_size = max(counts.values()), len(counts)
            else:
                slots = _read_slots(poly + (poly << bits * x), size, width, typecode)
                if sum(slots) != total:
                    raise InvariantViolated(
                        f"the slots of {w} do not total 2^{n}", witness=w
                    )
                peak, range_size = max(slots[: (size + 1) // 2]), support.bit_count()
            key = peak, range_size
            if key not in answers:
                rho = Fraction(peak, total)
                answers[key] = (rho, range_size, *_exponents(rho, range_size, n))
            points.append(_new_point(w, *answers[key]))
    return points


def pareto_subset(points: Sequence) -> list:
    """The delta-maximal point at each attained eps, keyed by rho's integer
    ratio; lexicographic weight order breaks ties and orders the output."""
    best: dict = {}
    for p in points:
        key = p.rho.as_integer_ratio()
        cur = best.get(key)
        if cur is None or p.range_size > cur.range_size:
            best[key] = p
    return sorted(best.values(), key=lambda p: p.weights)


class AuditReport(Record):
    points: int
    max_delta_over_eps: float
    argmax_delta_over_eps: tuple
    max_delta_over_sqrt_eps: float
    argmax_delta_over_sqrt_eps: tuple
    exceeding_2eps: tuple
    within_c: bool


def delta_over_eps(p: FrontierPoint) -> float:
    # eps = 0 forces w = 0^n, where delta = 0 too; the ratio is 1 by convention
    num, den = p.rho.as_integer_ratio()
    return 1.0 if num == den else p.delta / p.epsilon


def delta_over_sqrt_eps(p: FrontierPoint) -> float:
    return p.delta / math.sqrt(clamped_eps(p.epsilon, len(p.weights)))


def audit(points: Sequence, C: float = DEFAULT_C) -> AuditReport:
    """Assert |R|*rho >= 1 (delta >= eps) exactly for every point; report the
    extreme exponent ratios and any point beyond delta = 2*eps, deciding each
    distinct (n, |R|, rho, eps, delta) once, in point order.

    The 2*eps comparison is exact (|R|*rho^2 vs 1) and is reported only.
    No swept vector exceeds it (n <= 8 with weights <= 12; n = 2, 3, 4 with
    weights <= 60, 30, 20): the largest |R|*rho^2 is 1, at the zero vector.
    """
    if not points:
        raise BadParams("audit needs at least one point")
    finite(C)
    best_ratio = best_sqrt = -1.0
    arg_ratio = arg_sqrt = None
    exceeding = []
    decided = {}  # (n, |R|, rho, eps, delta) -> (ratio, sqrt ratio, beyond 2 eps)
    for p in points:
        key = len(p.weights), p.range_size, p.rho.as_integer_ratio(), p.epsilon, p.delta
        found = decided.get(key)
        if found is None:
            num, den = key[2]
            if p.range_size * num < den:
                raise InvariantViolated(
                    f"|R|*rho < 1 at {p.weights}: {p.range_size} * {p.rho}", witness=p
                )
            beyond = p.range_size * num * num > den * den
            found = decided[key] = delta_over_eps(p), delta_over_sqrt_eps(p), beyond
        r, rs, beyond = found
        if r > best_ratio:
            best_ratio, arg_ratio = r, p.weights
        if rs > best_sqrt:
            best_sqrt, arg_sqrt = rs, p.weights
        if beyond:
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
