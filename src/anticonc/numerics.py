"""Exact arithmetic kernel and decisive comparison against pi/exp expressions.

Counts are plain Python ints (arbitrary precision, no silent overflow) and
probabilities are ``fractions.Fraction`` (always reduced, positive
denominator).  Inequalities whose right-hand side mixes rationals with pi and
exp are decided by directed-rounding interval evaluation at doubling
precision, never by double-precision floating point: a comparison either
separates the operands rigorously or reports ``Undecidable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from mpmath.ctx_iv import MPIntervalContext

from .errors import Undecidable

RatLike = Union[int, Fraction]

DEFAULT_START_BITS = 128
DEFAULT_MAX_BITS = 4096


def binom(k: int, x: int) -> int:
    """Binomial coefficient C(k, x), zero outside 0 <= x <= k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if x < 0 or x > k:
        return 0
    return math.comb(k, x)


def binom_pmf(k: int, x: int) -> Fraction:
    """P[Bin(k) = x] for the fair binomial: C(k, x) / 2^k, exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Fraction(binom(k, x), 1 << k)


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class BoundExpr:
    """Base of the bound-expression grammar: rationals, pi, exp, powers, +, *.

    Expressions are immutable and evaluable to an enclosing interval at any
    requested precision; widening the precision only shrinks the interval.
    """

    def __add__(self, other) -> "BoundExpr":
        return Add(self, as_expr(other))

    def __radd__(self, other) -> "BoundExpr":
        return Add(as_expr(other), self)

    def __mul__(self, other) -> "BoundExpr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other) -> "BoundExpr":
        return Mul(as_expr(other), self)

    def __pow__(self, exponent) -> "BoundExpr":
        return Pow(self, Fraction(exponent))


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
class Pow(BoundExpr):
    base: BoundExpr
    exponent: Fraction

    def __str__(self):
        return f"({self.base})^({self.exponent})"


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


def _nth_root_exact(value: int, n: int) -> Optional[int]:
    """The exact n-th root of a nonnegative int, or None if not a perfect power."""
    if value < 0:
        return None
    if value in (0, 1) or n == 1:
        return value
    lo, hi = 0, 1 << (value.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == value else None


def exact_value(expr: BoundExpr) -> Optional[Fraction]:
    """The exact rational value of ``expr``, or None if it is (structurally)
    irrational.

    Detects exp(0)=1, zero annihilation in products, and perfect rational
    roots; deeper identities (e.g. sqrt(2)*sqrt(2)) are not simplified.
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
    if isinstance(expr, Pow):
        e = expr.exponent
        if e == 0:
            return Fraction(1)
        base = exact_value(expr.base)
        if base is None:
            return None
        if e.denominator == 1:
            p = int(e)
            if base == 0 and p < 0:
                raise ZeroDivisionError("0 raised to a negative power")
            return base**p
        num_root = _nth_root_exact(base.numerator, e.denominator)
        den_root = _nth_root_exact(base.denominator, e.denominator)
        if num_root is None or den_root is None:
            return None
        root = Fraction(num_root, den_root)
        p = e.numerator
        if root == 0 and p < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return root**p
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
    if isinstance(expr, Pow):
        base = _eval_iv(expr.base, ctx)
        e = expr.exponent
        if e.denominator == 1:
            return base ** int(e)
        lo = _endpoint_to_fraction(base._mpi_[0])
        if lo < 0:
            raise ValueError("fractional power of a possibly negative base")
        exp_iv = ctx.mpf(e.numerator) / ctx.mpf(e.denominator)
        return ctx.exp(exp_iv * ctx.log(base))
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
