"""Exact arithmetic kernel and decisive comparison against pi/exp expressions.

Counts are plain Python ints (arbitrary precision, no silent overflow) and
probabilities are ``fractions.Fraction`` (always reduced, positive
denominator).  Inequalities whose right-hand side mixes rationals with pi and
exp are decided by directed-rounding interval evaluation at doubling
precision, never by double-precision floating point: a comparison either
separates the operands rigorously or reports ``Undecidable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from mpmath.ctx_iv import MPIntervalContext

from .errors import WORK_LIMIT, BadParams, Undecidable, charge

RatLike = Union[int, Fraction]

DEFAULT_START_BITS = 128
DEFAULT_MAX_BITS = 4096


def binomial_row(k: int) -> list:
    """C(k, 0..k) by a running product.  Its k+1 entries hold up to k bits
    each, so (k+1)^2 is charged against WORK_LIMIT before it is built."""
    if k < 0:
        raise BadParams("k must be >= 0")
    charge((k + 1) ** 2, WORK_LIMIT, "Bin(k) binomial row (k+1)^2")
    row = [1]
    for x in range(k):
        row.append(row[-1] * (k - x) // (x + 1))
    return row


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class BoundExpr:
    """Base of the bound-expression grammar: rationals, pi, exp, +, *.

    Expressions are immutable and evaluable to an enclosing interval at any
    requested precision; widening the precision only shrinks the interval.
    """

    def __add__(self, other) -> "BoundExpr":
        return Add(self, as_expr(other))

    def __mul__(self, other) -> "BoundExpr":
        return Mul(self, as_expr(other))


@dataclass(frozen=True)
class Rat(BoundExpr):
    value: Fraction

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class _Pi(BoundExpr):
    def __str__(self):
        return "pi"


PI = _Pi()


@dataclass(frozen=True)
class Exp(BoundExpr):
    arg: BoundExpr

    def __str__(self):
        return f"exp({self.arg})"


@dataclass(frozen=True)
class Add(BoundExpr):
    left: BoundExpr
    right: BoundExpr

    def __str__(self):
        return f"{self.left} + {self.right}"


@dataclass(frozen=True)
class Mul(BoundExpr):
    left: BoundExpr
    right: BoundExpr

    def __str__(self):
        return f"({self.left})*({self.right})"


def as_expr(x) -> BoundExpr:
    if isinstance(x, BoundExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(Fraction(x))
    raise TypeError(f"cannot build a bound expression from {type(x).__name__}")


def exact_value(expr: BoundExpr) -> Optional[Fraction]:
    """The exact rational value of ``expr``, or None if it is (structurally)
    irrational.

    Detects exp(0)=1 and zero annihilation in products; deeper identities
    (e.g. exp(1)*exp(-1)) are not simplified.
    """
    if isinstance(expr, Rat):
        return expr.value
    if isinstance(expr, _Pi):
        return None
    if isinstance(expr, Exp):
        arg = exact_value(expr.arg)
        return Fraction(1) if arg == 0 else None
    if isinstance(expr, Add):
        left, right = exact_value(expr.left), exact_value(expr.right)
        if left is not None and right is not None:
            return left + right
        return None
    if isinstance(expr, Mul):
        left, right = exact_value(expr.left), exact_value(expr.right)
        if left == 0 or right == 0:
            return Fraction(0)
        if left is not None and right is not None:
            return left * right
        return None
    raise TypeError(f"not a bound expression: {expr!r}")


def _endpoint_to_fraction(t) -> Fraction:
    sign, man, exp, bc = t
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ArithmeticError("nonfinite interval endpoint")
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def _eval_iv(expr: BoundExpr, ctx):
    if isinstance(expr, Rat):
        return ctx.mpf(expr.value.numerator) / ctx.mpf(expr.value.denominator)
    if isinstance(expr, _Pi):
        return ctx.pi
    if isinstance(expr, Exp):
        return ctx.exp(_eval_iv(expr.arg, ctx))
    if isinstance(expr, Add):
        return _eval_iv(expr.left, ctx) + _eval_iv(expr.right, ctx)
    if isinstance(expr, Mul):
        return _eval_iv(expr.left, ctx) * _eval_iv(expr.right, ctx)
    raise TypeError(f"not a bound expression: {expr!r}")


def interval(expr: BoundExpr, bits: int) -> tuple[Fraction, Fraction]:
    """A rigorous enclosure [lo, hi] of ``expr`` at the given working precision."""
    ctx = MPIntervalContext()
    ctx.prec = bits
    v = _eval_iv(expr, ctx)
    lo_t, hi_t = v._mpi_
    return _endpoint_to_fraction(lo_t), _endpoint_to_fraction(hi_t)


def cmp_bound(
    q: RatLike,
    expr: BoundExpr,
    *,
    start_bits: int = DEFAULT_START_BITS,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Ordering:
    """Decide the true ordering of the rational ``q`` versus ``expr``.

    Exactly-rational expressions are compared symbolically (the only source
    of EQUAL); otherwise precision doubles from ``start_bits`` (or from
    ``max_bits`` when that is lower) until the enclosure excludes ``q``.
    Raises ``Undecidable`` at ``max_bits`` instead of guessing.
    """
    q = Fraction(q)
    exact = exact_value(expr)
    if exact is not None:
        if q < exact:
            return Ordering.LESS
        if q > exact:
            return Ordering.GREATER
        return Ordering.EQUAL
    bits = min(start_bits, max_bits)
    while bits <= max_bits:
        lo, hi = interval(expr, bits)
        if q < lo:
            return Ordering.LESS
        if q > hi:
            return Ordering.GREATER
        bits *= 2
    raise Undecidable(
        f"could not separate {q} from {expr} within {max_bits} bits"
    )
