"""Exhaustive canonical sweep of small weight vectors over the (eps, delta)
plane, the per-eps Pareto subset, and the audit of the universal bound.

Negation, permutation, and scaling leave (rho, |R|) unchanged, so only
nondecreasing gcd-reduced nonnegative vectors are evaluated.  Work is split
into contiguous chunks of the canonical enumeration order and merged back in
chunk order, so output never depends on the worker count.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BadParams, InvariantViolated, charge
from .lemmas import DEFAULT_C
from .subsetsum import Weights, as_weights, concentration, profile

DEFAULT_SWEEP_BUDGET = 10**8


@dataclass(frozen=True)
class FrontierPoint:
    weights: tuple
    rho: Fraction
    range_size: int
    epsilon: float
    delta: float


@dataclass(frozen=True)
class SweepConfig:
    n: int
    max_weight: int
    workers: int = 1
    budget: int = DEFAULT_SWEEP_BUDGET

    def __post_init__(self):
        if self.n < 1:
            raise BadParams("n must be >= 1")
        if self.max_weight < 0:
            raise BadParams("max_weight must be >= 0")
        if self.workers < 1:
            raise BadParams("workers must be >= 1")


def canonicalize(w: Weights) -> Weights:
    """Sort magnitudes ascending and divide out the gcd of the nonzero
    entries; (rho, |R|) is invariant under all three reductions."""
    w = as_weights(w)
    mags = sorted(abs(x) for x in w)
    g = math.gcd(*(x for x in mags if x))
    if g > 1:
        mags = [x // g for x in mags]
    return tuple(mags)


def canonical_vectors(n: int, max_weight: int) -> Iterator[tuple]:
    """All canonical vectors in {0,...,max_weight}^n in lexicographic order:
    nondecreasing, and gcd-reduced unless identically zero."""
    for v in itertools.combinations_with_replacement(range(max_weight + 1), n):
        nonzero = [x for x in v if x]
        if not nonzero or math.gcd(*nonzero) == 1:
            yield v


def _point(w: tuple) -> FrontierPoint:
    rep = concentration(profile(w))
    return FrontierPoint(
        weights=w,
        rho=rep.rho,
        range_size=rep.range_size,
        epsilon=rep.epsilon,
        delta=rep.delta,
    )


def _chunk_points(chunk: Sequence) -> list:
    return [_point(w) for w in chunk]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_points(cfg: SweepConfig) -> list:
    """Evaluate every canonical vector; result order is lexicographic and
    independent of the worker count.  The pool has no more processes
    than ``workers``, vectors or CPUs this process may use, and each process
    gets one contiguous chunk."""
    charge(math.comb(cfg.max_weight + cfg.n, cfg.n), cfg.budget, "candidate vectors")
    vectors = list(canonical_vectors(cfg.n, cfg.max_weight))
    m = len(vectors)
    workers = min(cfg.workers, m, _usable_cpus())
    if workers == 1:
        return _chunk_points(vectors)
    cuts = [i * m // workers for i in range(workers + 1)]
    chunks = [vectors[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [p for part in pool.map(_chunk_points, chunks) for p in part]


def pareto_subset(points: Sequence) -> list:
    """The delta-maximal point at each attained eps, keyed by exact rho;
    lexicographic weight order breaks ties and orders the output."""
    best: dict = {}
    for p in points:
        cur = best.get(p.rho)
        if cur is None or p.range_size > cur.range_size:
            best[p.rho] = p
    return sorted(best.values(), key=lambda p: p.weights)


def enumerate_frontier(cfg: SweepConfig) -> list:
    return pareto_subset(sweep_points(cfg))


@dataclass(frozen=True)
class AuditReport:
    points: int
    c: float
    max_delta_over_eps: float
    argmax_delta_over_eps: tuple
    max_delta_over_sqrt_eps: float
    argmax_delta_over_sqrt_eps: tuple
    exceeding_2eps: tuple
    within_c: bool


def clamped_eps(p: FrontierPoint) -> float:
    return max(p.epsilon, 1.0 / len(p.weights) ** 2)


def delta_over_eps(p: FrontierPoint) -> float:
    # eps = 0 forces w = 0^n, where delta = 0 too; the ratio is 1 by convention
    return 1.0 if p.rho == 1 else p.delta / p.epsilon


def delta_over_sqrt_eps(p: FrontierPoint) -> float:
    return p.delta / math.sqrt(clamped_eps(p))


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
        c=C,
        max_delta_over_eps=best_ratio,
        argmax_delta_over_eps=arg_ratio,
        max_delta_over_sqrt_eps=best_sqrt,
        argmax_delta_over_sqrt_eps=arg_sqrt,
        exceeding_2eps=tuple(exceeding),
        within_c=best_sqrt <= C,
    )
