import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticonc.errors import BadParams, TooLarge, Undecidable, work_limit
from anticonc.numerics import (
    PI,
    Add,
    Exp,
    Mul,
    Ordering,
    Rat,
    binomial_row,
    cmp_bound,
    interval,
)
from conftest import pascal_binom

E = Exp(Rat(Fraction(1)))
# S < e < S + 2/41!, since the tail sum over i > 40 of 1/i! is below 2/41!
E_LO = sum(Fraction(1, math.factorial(i)) for i in range(41))
E_HI = E_LO + Fraction(2, math.factorial(41))


def test_binom_examples():
    assert binomial_row(3) == [1, 3, 3, 1]
    assert binomial_row(52)[5] == 2598960 == pascal_binom(52, 5)
    assert binomial_row(0) == [1]
    assert len(binomial_row(9999)) == 10000  # the largest row within the limit
    with pytest.raises(BadParams):
        binomial_row(-1)
    with pytest.raises(TooLarge):
        binomial_row(10**4)


def test_binom_symmetry_and_oracle():
    for k in range(31):
        row = binomial_row(k)
        assert row == row[::-1]
        assert row == [pascal_binom(k, x) for x in range(k + 1)]


def test_cmp_bound_examples():
    assert cmp_bound(1, Exp(Rat(Fraction(0)))) is Ordering.EQUAL
    assert cmp_bound(2, Exp(Rat(Fraction(1)))) is Ordering.LESS
    assert cmp_bound(Fraction(355, 113), PI) is Ordering.GREATER
    rhs = Exp(Mul(Rat(Fraction(10, 3)), PI)) + Rat(2 * 3 * Fraction(4, 5) ** 3)
    assert cmp_bound(Fraction(7, 8), rhs) is Ordering.LESS
    # a cap below the start precision still evaluates once, at the cap
    with work_limit(precision_cap_bits=64):
        assert cmp_bound(Fraction(3, 16), PI) is Ordering.LESS


def test_cmp_bound_equal_only_on_collapsed_enclosures():
    # EQUAL needs an enclosure that collapses to q, exact for dyadic values,
    # or a bare Rat, which is compared directly
    for q, expr in ((1, Exp(Rat(Fraction(0)))), (0, Mul(Rat(Fraction(0)), PI)),
                    (Fraction(3, 4), Rat(Fraction(1, 2)) + Rat(Fraction(1, 4))),
                    (Fraction(1, 3), Rat(Fraction(1, 3)))):
        assert cmp_bound(q, expr) is Ordering.EQUAL
    assert cmp_bound(Fraction(1, 3), Rat(Fraction(1, 2))) is Ordering.LESS
    # a non-dyadic sum's enclosure never collapses, even onto its exact value
    with pytest.raises(Undecidable), work_limit(precision_cap_bits=256):
        cmp_bound(Fraction(5, 6), Rat(Fraction(1, 2)) + Rat(Fraction(1, 3)))


def test_interval_encloses_and_narrows():
    lo1, hi1 = interval(E, 128)
    lo2, hi2 = interval(E, 512)
    assert lo1 < E_LO < E_HI < hi1
    assert lo1 <= lo2 <= hi2 <= hi1
    assert hi2 - lo2 < hi1 - lo1
    lo, hi = interval(PI, 128)
    assert Fraction(355, 113) > hi  # pi < 355/113
    assert Fraction(22, 7) > hi and lo > 3


def test_interval_exact_rational():
    lo, hi = interval(Rat(Fraction(5, 8)), 64)
    assert lo == hi == Fraction(5, 8)  # dyadic: exactly representable


def test_interval_prices_exp_before_it_runs():
    # exp(exp(exp(9))) has endpoints of about 2^11690 bits: priced before the
    # Taylor sum and its 11,692 squarings, it is refused at once
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="endpoint bits / 4"):
        interval(Exp(Exp(Exp(Rat(Fraction(9))))), 128)
    assert time.perf_counter() - t0 < 1
    lo, hi = interval(Exp(Exp(Rat(Fraction(10)))), 128)  # about 2^31777
    assert 2**31776 < lo < hi < 2**31778


def test_interval_rounds_rationals_to_bits_significant_bits():
    for q in (Fraction(2, 3), Fraction(-2, 3), Fraction(1, 3), Fraction(7, 5),
              Fraction(-1000, 7)):
        t = math.floor(math.log2(abs(q)))
        for bits in (1, 2, 8, 64):
            lo, hi = interval(Rat(q), bits)
            assert lo < q < hi and hi - lo == Fraction(2) ** (t + 1 - bits)


def test_cmp_bound_undecidable_at_cap():
    lo, _ = interval(E, 512)
    with pytest.raises(Undecidable), work_limit(precision_cap_bits=256):
        cmp_bound(lo, E)


def test_precision_below_one_bit_refused():
    # doubling from 0 bits never reaches the cap, and a negative shift is no
    # enclosure: both are refused before any work, even for a bare rational
    for bits in (0, -1, -64):
        with pytest.raises(BadParams), work_limit(precision_cap_bits=bits):
            cmp_bound(Fraction(1, 3), PI)
        with pytest.raises(BadParams), work_limit(precision_cap_bits=bits):
            cmp_bound(Fraction(1, 3), Rat(Fraction(1, 2)))
        with pytest.raises(BadParams):
            interval(PI, bits)


def test_cmp_bound_decides_near_values():
    lo, hi = interval(E, 256)
    with work_limit(precision_cap_bits=4096):
        assert cmp_bound(lo, E) is Ordering.LESS
        assert cmp_bound(hi, E) is Ordering.GREATER


@given(
    st.fractions(
        min_value=Fraction(1, 4), max_value=Fraction(7, 2), max_denominator=1000
    )
)
@settings(max_examples=60)
def test_cmp_bound_consistent_with_float(q):
    # pi is far from any small-denominator rational, so float comparison
    # agrees and precision increase can never flip the verdict
    expected = Ordering.LESS if float(q) < math.pi else Ordering.GREATER
    assert cmp_bound(q, PI) is expected
    with work_limit(precision_cap_bits=8192):
        assert cmp_bound(q, PI) is expected


def test_expr_operators_and_str():
    e = Rat(Fraction(1, 2)) + Mul(Rat(Fraction(1, 3)), PI)
    lo, hi = interval(e, 128)
    assert lo <= hi
    # 1/2 + pi/3 = 1.54719755...
    assert Fraction(15471, 10000) < lo and hi < Fraction(15473, 10000)
    assert "pi" in str(e)


def _mp(expr):
    """The value of ``expr`` in mpmath at its working precision, a test-time
    reference independent of the integer enclosures."""
    if isinstance(expr, Rat):
        return mpmath.mpf(expr.value.numerator) / expr.value.denominator
    if expr == PI:
        return +mpmath.pi
    if isinstance(expr, Exp):
        return mpmath.exp(_mp(expr.arg))
    if isinstance(expr, Add):
        return _mp(expr.left) + _mp(expr.right)
    return _mp(expr.left) * _mp(expr.right)


def _ops(leaves, max_leaves):
    return st.recursive(
        leaves,
        lambda sub: st.builds(Add, sub, sub) | st.builds(Mul, sub, sub),
        max_leaves=max_leaves,
    )


def _rats(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=64).map(Rat)


# exp arguments of at most three leaves stay within [-64, 64]
signed_exprs = _ops(
    _rats(-4, 4) | st.just(PI) | st.builds(Exp, _ops(_rats(-4, 4) | st.just(PI), 3)), 4
)
positive_exprs = _ops(
    _rats(Fraction(1, 64), 8) | st.just(PI) | st.builds(Exp, _rats(-8, 8)), 4
)


@given(signed_exprs)
@example(Exp(Rat(Fraction(0))))
@example(Exp(Rat(Fraction(-7, 2))))
@example(Mul(Add(PI, Rat(Fraction(-22, 7))), Rat(Fraction(-3))))
@example(Mul(Add(PI, Rat(Fraction(-4))), Exp(Mul(Rat(Fraction(-3)), PI))))
# addends far below the other's last bit, of either sign
@example(Add(Rat(Fraction(1)), Exp(Rat(Fraction(-64)))))
@example(Add(Rat(Fraction(1)), Mul(Rat(Fraction(-1)), Exp(Rat(Fraction(-64))))))
@settings(max_examples=100, deadline=None)
def test_interval_contains_mpmath_value(expr):
    with mpmath.workprec(10000):
        value = _mp(expr)
        for bits in (1, 2, 8, 64, 128, 4096):
            lo, hi = interval(expr, bits)
            for end in (lo, hi):  # a dyadic of at most ``bits`` significant bits
                num, den = abs(end.numerator), end.denominator
                assert den & (den - 1) == 0
                assert num == 0 or (num // (num & -num)).bit_length() <= bits
            # so both are exact in mpmath at this precision
            assert mpmath.mpf(lo.numerator) / lo.denominator <= value
            assert value <= mpmath.mpf(hi.numerator) / hi.denominator


@given(positive_exprs)
@settings(max_examples=100, deadline=None)
def test_interval_relative_width(expr):
    # each of at most four leaves lies within (|x| + 2) * 2^(1-bits) of its
    # value relatively, exp(x) with |x| <= 8 included, and each of at most
    # three operations rounds within 2^(1-bits): 43 such units a side
    for bits in (8, 64, 128, 4096):
        lo, hi = interval(expr, bits)
        assert 0 < lo <= hi <= lo * (1 + Fraction(256, 2**bits))


def test_pi_between_classical_bounds():
    for bits in (24, 32, 64, 128, 4096):
        lo, hi = interval(PI, bits)
        assert Fraction(333, 106) < lo < hi < Fraction(355, 113)
