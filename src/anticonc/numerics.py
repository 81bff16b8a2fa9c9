"""Exact arithmetic kernel and decisive comparison against pi/exp expressions.

Counts are plain Python ints (arbitrary precision, no silent overflow) and
probabilities are ``fractions.Fraction`` (always reduced, positive
denominator).  Inequalities whose right-hand side mixes rationals with pi and
exp are decided by outward-rounded integer interval evaluation at doubling
precision, never by double-precision floating point: a comparison either
separates the operands rigorously or reports ``Undecidable``.  The precision
cap is the ``precision_cap_bits`` of the ``errors.work_limit`` scope.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from typing import Union

from .errors import DEFAULT_MAX_BITS, WORK_LIMIT, BadParams, Record, Undecidable, budget
from .errors import charge

RatLike = Union[int, Fraction]

DEFAULT_START_BITS = 128


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


class BoundExpr(Record):
    """Base of the immutable bound-expression grammar: rationals, pi, exp, +, *."""

    def __add__(self, other) -> "BoundExpr":
        return Add(self, as_expr(other))


class Rat(BoundExpr):
    value: Fraction

    def __str__(self):
        return str(self.value)


class _Pi(BoundExpr):
    def __str__(self):
        return "pi"


PI = _Pi()


class Exp(BoundExpr):
    arg: BoundExpr

    def __str__(self):
        return f"exp({self.arg})"


class Add(BoundExpr):
    left: BoundExpr
    right: BoundExpr

    def __str__(self):
        return f"{self.left} + {self.right}"


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


_GUARD = 32  # bits that pi and exp carry beyond ``bits`` until they round


def _round(n: int, e: int, bits: int, up: int, d: int = 1) -> tuple:
    """n/d * 2^e, d > 0, rounded down (up=0) or up (up=1) to bits significant
    bits, as a dyadic (m, e) = m * 2^e: the ends of every enclosure are these."""
    if n == 0:
        return 0, 0
    t = abs(n).bit_length() - d.bit_length()  # floor(log2|n/d|) is t or t - 1
    t -= (abs(n) < d << t) if t >= 0 else (abs(n) << -t < d)
    s = bits - 1 - t  # |n/d| * 2^s lies in [2^(bits-1), 2^bits)
    num, den = (n << s, d) if s >= 0 else (n, d << -s)
    return (-(-num // den) if up else num // den), e - s


def _top(x: tuple) -> int:
    return abs(x[0]).bit_length() + x[1]


def _add(x: tuple, y: tuple, bits: int, up: int) -> tuple:
    """x + y rounded.  An addend below the other's last bit and rounding grid
    only decides which way the sum rounds: one bit there keeps the sum short."""
    if x[0] == 0 or (y[0] and _top(x) < _top(y)):
        x, y = y, x
    (mx, ex), (my, ey) = x, y
    low = min(ex, _top(x) - bits - 2) - 1
    if my and _top(y) < low:
        my, ey = (my > 0) - (my < 0), low - 1
    e = min(ex, ey)
    return _round((mx << ex - e) + (my << ey - e), e, bits, up)


def _pi(bits: int) -> tuple:
    """pi by Machin's 16 atan(1/5) - 4 atan(1/239) in p-bit fixed point.
    Floor-dividing by x^2 keeps each power the exact floor of 2^p/x^(2j+1),
    so each term is off by less than one, as is the alternating tail."""
    p = bits + _GUARD
    total = err = 0
    for c, x in ((16, 5), (-4, 239)):
        power, j = (1 << p) // x, 1
        while power:
            total += c * (power // j)
            power //= x * x
            c, j = -c, j + 2
        err += abs(c) * (j + 1) // 2  # (j - 1) / 2 terms and the tail
    return _round(total - err, -p, bits, 0), _round(total + err, -p, bits, 1)


def _exp(x: tuple, bits: int, up: int) -> tuple:
    """exp(x) rounded, as exp(y)^(2^j), y = x/2^j < 1/2: Taylor terms in p-bit
    fixed point, p = bits + j + _GUARD, floored (up=0) or ceiled (up=1) from
    the last; a ceiled one of one ulp bounds the tail.  Then j squarings."""
    m, e = x
    if m < 0:  # 1/exp(-x), rounded the other way
        n, f = _exp((-m, e), bits + _GUARD, 1 - up)
        return _round(1, -f, bits, up, n)
    # exp(x) = 2^(x log2 e), so its endpoints carry over x * 1.442695 bits:
    # priced as ``interval`` prices them, before the Taylor sum and squarings
    # (an x of 2^16 bits is far past any limit, so the shift stops there)
    whole = m << min(e, 1 << 16) if e >= 0 else m >> -e
    charge(whole * 1442695 // 10**6 // 4, WORK_LIMIT, "endpoint bits / 4")
    j = max(0, _top(x) + 1)
    p, shift = bits + j + _GUARD, j - e  # y = m / 2^shift
    total = term = 1 << p
    i = 0
    while term > up:
        i += 1
        term = -((-term * m >> shift) // i) if up else (term * m >> shift) // i
        total += term
    n, f = total + term, -p
    for _ in range(j):
        n, f = _round(n * n, 2 * f, p, up)
    return _round(n, f, bits, up)


def _enclose(expr: BoundExpr, bits: int) -> tuple:
    if isinstance(expr, Rat):
        q = expr.value
        return tuple(_round(q.numerator, 0, bits, up, q.denominator) for up in (0, 1))
    if isinstance(expr, _Pi):
        return _pi(bits)
    if isinstance(expr, Exp):
        lo, hi = _enclose(expr.arg, bits)
        return _exp(lo, bits, 0), _exp(hi, bits, 1)
    if not isinstance(expr, (Add, Mul)):
        raise TypeError(f"not a bound expression: {expr!r}")
    (a, b), (c, d) = _enclose(expr.left, bits), _enclose(expr.right, bits)
    if isinstance(expr, Add):
        return _add(a, c, bits, 0), _add(b, d, bits, 1)
    order = cmp_to_key(lambda x, y: _add(x, (-y[0], y[1]), 1, 0)[0])  # sign of x - y
    products = sorted(((m * n, e + f) for m, e in (a, b) for n, f in (c, d)), key=order)
    return _round(*products[0], bits, 0), _round(*products[-1], bits, 1)


def interval(expr: BoundExpr, bits: int) -> tuple[Fraction, Fraction]:
    """A rigorous enclosure [lo, hi] of ``expr``, every operation rounded outward
    to ``bits`` significant bits.  As a Fraction an endpoint takes 0.3-2.7 ns and
    half a byte a bit (timed), so a quarter of its bit length is charged first."""
    if bits < 1:
        raise BadParams(f"bits must be >= 1, not {bits}")
    ends = _enclose(expr, bits)
    for m, e in ends:
        charge((abs(m).bit_length() + abs(e)) // 4, WORK_LIMIT, "endpoint bits / 4")
    return tuple(Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e) for m, e in ends)


def cmp_bound(q: RatLike, expr: BoundExpr) -> Ordering:
    """Decide the true ordering of the rational ``q`` versus ``expr``.

    A bare ``Rat`` is compared directly.  Otherwise precision doubles from
    DEFAULT_START_BITS (or from the cap ``precision_cap_bits`` when lower) until
    the enclosure excludes ``q``, or collapses to the point ``q`` (EQUAL: exact
    for dyadic values such as exp(0) and 0*pi).  Raises ``Undecidable`` at
    the cap instead of guessing; refuses a cap below 1.
    """
    cap = budget(DEFAULT_MAX_BITS, "precision_cap_bits")
    if cap < 1:
        raise BadParams(f"precision_cap_bits must be >= 1, not {cap}")
    q = Fraction(q)
    if isinstance(expr, Rat):
        return Ordering((q > expr.value) - (q < expr.value))
    bits = min(DEFAULT_START_BITS, cap)
    while bits <= cap:
        lo, hi = interval(expr, bits)
        if q < lo:
            return Ordering.LESS
        if q > hi:
            return Ordering.GREATER
        if lo == hi:
            return Ordering.EQUAL
        bits *= 2
    raise Undecidable(
        f"could not separate {q} from {expr} within {cap} bits"
    )
