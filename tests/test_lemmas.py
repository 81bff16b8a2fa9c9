import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticonc import lemmas
from anticonc.errors import BadParams, BudgetExceeded, InvariantViolated, TooLarge
from anticonc.lemmas import (
    Verdict,
    block_construction,
    block_theory,
    check_initial_bound,
    check_sup_ratio_bound,
    max_ratio_bound,
    ratio_moment,
    second_moment_identity,
    sup_ratio_exact,
    sup_ratio_mc,
    tail_check,
    theorem_check,
)
from anticonc.subsetsum import CubeSet, concentration, profile
from conftest import (
    brute_ratio_moment,
    brute_sup_ratio,
    brute_sup_ratio_exact,
    brute_sup_ratio_mc,
    brute_tail,
    fraction_max_ratio_holds,
    fraction_tail_holds,
    ratio_table,
)

small_cube_sets = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.sets(
        st.tuples(*([st.integers(min_value=0, max_value=1)] * n)),
        min_size=1,
        max_size=2**n,
    ).map(lambda vs: CubeSet.from_vectors(n, vs))
)

# up to n = 5, so that at k = 3 and 4 the exact walk has coordinates ahead of
# its inner block as well as in it
cube_sets_to_5 = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.sets(
        st.tuples(*([st.integers(min_value=0, max_value=1)] * n)),
        min_size=1,
        max_size=8,
    ).map(lambda vs: CubeSet.from_vectors(n, vs))
)


def _cs(*vectors):
    return CubeSet.from_vectors(len(vectors[0]), vectors)


def test_ratio_moment_examples():
    assert ratio_moment(1, 1) == Fraction(1, 2)
    assert ratio_moment(3, 1) == Fraction(7, 8)
    assert ratio_moment(3, 2) == Fraction(37, 24)
    with pytest.raises(BadParams):
        ratio_moment(0, 1)
    with pytest.raises(BadParams):
        ratio_moment(3, 0)


@given(
    st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=3)
)
@settings(max_examples=30, deadline=None)
def test_ratio_moment_matches_oracle(k, s):
    assert ratio_moment(k, s) == brute_ratio_moment(k, s)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_first_ratio_moment_closed_form(k):
    assert ratio_moment(k, 1) == 1 - Fraction(1, 1 << k)


def test_initial_bound_examples():
    rec = check_initial_bound(51, 1)
    assert rec.verdict is Verdict.HOLDS and rec.in_hypothesis
    assert rec.lhs == ratio_moment(51, 1)

    rec = check_initial_bound(50, 1)
    assert not rec.in_hypothesis  # 50/16 < pi

    rec = check_initial_bound(3, 1)
    assert rec.verdict is Verdict.HOLDS and not rec.in_hypothesis

    rec = check_initial_bound(64, 1)
    assert rec.verdict is Verdict.HOLDS and rec.in_hypothesis

    with pytest.raises(BadParams):
        check_initial_bound(0, 1)


def test_initial_bound_undecided_hypothesis():
    # 4 bits cannot place 50/16 against pi; the flag is left undecided
    rec = check_initial_bound(50, 1, max_bits=4)
    assert rec.in_hypothesis is None and rec.verdict is Verdict.HOLDS
    rec = check_initial_bound(100, 2, max_bits=1)
    assert rec.in_hypothesis is None and rec.verdict is Verdict.UNDECIDABLE


def test_initial_bound_hypothesis_region():
    # s <= k/(16*pi): k=256 admits s up to 5, k=128 up to 2
    admitted = [s for s in range(1, 8) if check_initial_bound(256, s).in_hypothesis]
    assert admitted == [1, 2, 3, 4, 5]
    admitted = [s for s in range(1, 5) if check_initial_bound(128, s).in_hypothesis]
    assert admitted == [1, 2]


def test_second_moment_spot():
    rec = second_moment_identity(3)
    assert rec.lhs == Fraction(37, 24)
    assert rec.mid == Fraction(9, 8)
    assert rec.verdict is Verdict.HOLDS
    with pytest.raises(BadParams):
        second_moment_identity(2)


def test_second_moment_range():
    for k in range(3, 61):
        assert second_moment_identity(k).verdict is Verdict.HOLDS


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_tail_matches_oracle(k):
    tail = brute_tail(k)
    assert tail <= 2 * Fraction(4, 5) ** k
    assert tail_check(k) is Verdict.HOLDS


def test_tail_sum_matches_oracle():
    # multiples of 6 put a head count exactly on the tail's boundary |x - k/2| = k/3
    for k in range(1, 21):
        assert lemmas._tail_sum(k) == brute_tail(k) * 2**k, k


def test_tail_examples():
    for k in (1, 6, 30, 100):
        assert tail_check(k) is Verdict.HOLDS
    with pytest.raises(BadParams):
        tail_check(0)


def test_integer_checks_match_fraction_forms():
    for k in range(1, 257):
        assert (tail_check(k) is Verdict.HOLDS) == fraction_tail_holds(k), k
    for k in range(2, 257):
        assert (max_ratio_bound(k) is Verdict.HOLDS) == fraction_max_ratio_holds(k), k


def test_max_ratio():
    for k in (2, 3, 10):
        assert max_ratio_bound(k) is Verdict.HOLDS
    with pytest.raises(BadParams):
        max_ratio_bound(1)


def test_sup_ratio_exact_hand_values():
    assert sup_ratio_exact(_cs((0, 0, 0)), 3) == 1
    assert sup_ratio_exact(_cs((1,)), 2) == Fraction(3, 4)
    assert sup_ratio_exact(_cs((0,), (1,)), 2) == Fraction(5, 4)
    assert sup_ratio_exact(CubeSet.from_vectors(2, []), 3) == 0
    with pytest.raises(BudgetExceeded):
        sup_ratio_exact(_cs((1, 1, 1)), 9, budget=100)
    with pytest.raises(BadParams):
        sup_ratio_exact(_cs((1,)), 0)


def test_sup_ratio_exact_priced_by_supports():
    a = _cs((0, 1), (1, 1))  # 4^2 points at k = 3, each with |A| + 1 = 3 products
    assert sup_ratio_exact(a, 3, budget=48) == brute_sup_ratio(list(a), 3, 2)
    with pytest.raises(TooLarge):
        sup_ratio_exact(a, 3, budget=47)


def test_sup_ratio_priced_by_limbs():
    # n = 2, k = 2235: 2236^2 points * (|A| + 1) = 2 products is within the
    # 10^7 budget, but each product holds up to 2 * (3354 + 12) bits, 106
    # limbs, so it is refused at once and the bound goes to Monte Carlo
    a = _cs((0, 0))
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        sup_ratio_exact(a, 2235)
    assert time.perf_counter() - t0 < 1
    rep = check_sup_ratio_bound(a, 2235, samples=20)
    assert rep.method == "mc" and rep.value == 1.0


@given(cube_sets_to_5, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_sup_ratio_exact_matches_oracle(a, k):
    got = sup_ratio_exact(a, k)
    assert (got, None) == brute_sup_ratio_exact(list(a), a.n, k, ratio_table(k))
    if a.n <= 3:
        assert got == brute_sup_ratio(list(a), k, a.n)
    if (0,) * a.n in a:
        assert got >= 1  # the zero shift contributes ratio 1 everywhere
    assert got <= Fraction(k) ** a.n


@pytest.mark.parametrize("n,k,size", [(5, 3, 32), (5, 4, 32), (6, 3, 20), (3, 20, 6)])
def test_sup_ratio_exact_rows_share_inner_patterns(n, k, size):
    # many a agree on the inner block's coordinates and differ ahead of it,
    # so each inner row is the largest of several partial products
    cube = list(itertools.product((0, 1), repeat=n))
    vectors = random.Random(n * k).sample(cube, size)
    a = CubeSet.from_vectors(n, vectors)
    assert sup_ratio_exact(a, k) == brute_sup_ratio_exact(vectors, n, k, ratio_table(k))[0]


@given(cube_sets_to_5, st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_sup_ratio_exact_witness_is_first_in_product_order(a, k, data):
    # one ratio raised to at least k^n times its old value plus k^n: every
    # point taking it on a support then tops the cap, unless it is ratio 0
    # and the rest of the product is at most 1
    L, ratios, weights = ratio_table(k)
    x0 = data.draw(st.integers(min_value=0, max_value=k))
    ratios[x0] = (ratios[x0] + L) * k**a.n
    table = (L, ratios, weights)
    expected, first = brute_sup_ratio_exact(list(a), a.n, k, table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lemmas, "_ratio_table", lambda _k: table)
        if first is None:
            assert sup_ratio_exact(a, k) == expected
        else:
            with pytest.raises(InvariantViolated) as exc:
                sup_ratio_exact(a, k)
            assert exc.value.witness == first


@given(small_cube_sets, st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_sup_ratio_monotone_in_a(a, k):
    grown = CubeSet.from_vectors(a.n, set(a) | {(0,) * a.n})
    assert sup_ratio_exact(grown, k) >= sup_ratio_exact(a, k)


def test_sup_ratio_mc_constant_case():
    est = sup_ratio_mc(_cs((0, 0)), 3, 500, seed=1)
    assert est.mean == 1.0 and est.std_error == 0.0


def test_sup_ratio_mc_deterministic():
    a = _cs((1, 0), (1, 1))
    e1 = sup_ratio_mc(a, 4, 2000, seed=42)
    e2 = sup_ratio_mc(a, 4, 2000, seed=42)
    assert (e1.mean, e1.std_error) == (e2.mean, e2.std_error)
    e3 = sup_ratio_mc(a, 4, 2000, seed=43)
    assert e3.mean != e1.mean
    with pytest.raises(BadParams):
        sup_ratio_mc(a, 4, 0, seed=1)
    # samples * n * |A| = (25e6 + 1) * 2 * 2 exceeds the Monte Carlo work
    # limit of 10^8 and is refused before the first draw
    with pytest.raises(TooLarge):
        sup_ratio_mc(a, 4, 25 * 10**6 + 1, seed=1)


MC_PINS = [  # (A, k, samples, seed) -> (mean.hex(), std_error.hex())
    # a criterion-9 shape: n = 5, k = 6, |A| = 8
    ((_cs((1, 0, 1, 1, 0), (0, 1, 1, 0, 1), (1, 1, 0, 0, 0), (0, 0, 0, 1, 1),
          (1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (1, 1, 1, 0, 0), (0, 0, 1, 0, 1)),
      6, 3000, 9), ("0x1.4d507c5300089p+1", "0x1.1118267f81344p-4")),
    ((_cs((1, 0, 1), (0, 1, 1)), 4, 1, 3), ("0x1.8000000000000p-2", "0x0.0p+0")),
    # A holds the zero vector, so every sample's sup is at least 1
    ((_cs((0, 0, 0), (1, 1, 0), (0, 1, 1)), 5, 1000, 11),
     ("0x1.b74bc6a7ef9dbp+0", "0x1.f790fc7f88d5fp-5")),
    # k = 1100: two full 512-bit blocks and 76 bits of a third per draw
    ((_cs((1, 0, 1), (0, 1, 1), (1, 1, 0)), 1100, 300, 2),
     ("0x1.0ab3487fe2b07p+0", "0x1.3050e74ddb877p-8")),
]


@pytest.mark.parametrize("args,pin", MC_PINS)
def test_sup_ratio_mc_frozen_stream(args, pin):
    est = sup_ratio_mc(*args)
    assert (est.mean.hex(), est.std_error.hex()) == pin


@pytest.mark.parametrize("k", [1, 6, 511, 512, 513, 1100])
def test_sup_ratio_mc_matches_per_sample_loop(k):
    # the draws grouped by point, against one sup per sample over the
    # single-draw stream, with and without the zero vector in A
    for vectors in ([(1, 0, 1), (0, 1, 1)], [(0, 0, 0), (1, 0, 1), (0, 1, 1)]):
        a = CubeSet.from_vectors(3, vectors)
        for samples in (1, 2, 1000):
            est = sup_ratio_mc(a, k, samples, seed=k + samples)
            mean, std_error = brute_sup_ratio_mc(
                vectors, 3, k, samples, k + samples, lemmas._binomial_draw)
            assert (est.mean.hex(), est.std_error.hex()) == (mean.hex(), std_error.hex())


def test_sup_ratio_mc_converges():
    a = _cs((0, 1), (1, 0), (1, 1))
    exact = float(sup_ratio_exact(a, 4))
    est = sup_ratio_mc(a, 4, 10_000, seed=7)
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_check_sup_ratio_bound_exact_and_mc():
    a = _cs((0, 1), (1, 1))
    rep = check_sup_ratio_bound(a, 3, C=20.0)
    assert rep.method == "exact" and rep.std_error == 0.0
    assert rep.exact == sup_ratio_exact(a, 3)
    assert rep.value == float(rep.exact)
    assert rep.holds == (rep.value <= rep.bound)
    assert rep.margin == rep.bound - rep.value

    rep = check_sup_ratio_bound(a, 3, C=20.0, budget=2, samples=300, seed=5)
    assert rep.method == "mc" and rep.exact is None

    with pytest.raises(BadParams):
        check_sup_ratio_bound(CubeSet.from_vectors(2, []), 3)
    # exp(C*...) beyond the float range is refused, not an OverflowError
    with pytest.raises(TooLarge):
        check_sup_ratio_bound(a, 1, C=1000.0)


def test_block_construction_examples():
    assert block_construction(4, 2) == (1, 1, 3, 3)
    assert block_construction(6, 2) == (1, 1, 3, 3, 9, 9)
    assert block_construction(3, 3) == (1, 1, 1)
    assert block_construction(6, 3) == (1, 1, 1, 4, 4, 4)
    with pytest.raises(BadParams):
        block_construction(5, 2)
    with pytest.raises(BadParams):
        block_construction(0, 1)


def test_block_vector_and_theory_priced():
    # 10^6 ones: C(10^6, 5*10^5) alone took about 10 s, and profile about
    # 1.7 s to refuse the vector; both are refused before any work
    for build in (block_construction, block_theory):
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            build(10**6, 10**6)
        assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize(
    "n,k", [(4, 2), (6, 2), (8, 2), (6, 3), (9, 3), (8, 4), (3, 3)]
)
def test_block_theory_matches_measurement(n, k):
    theory = block_theory(n, k)
    rep = concentration(profile(block_construction(n, k)))
    assert rep.rho == theory.rho
    assert rep.range_size == theory.range_size


def test_theorem_check():
    rep = concentration(profile((0,) * 6))
    chk = theorem_check(rep, C=1.0)
    assert chk.epsilon == pytest.approx(1 / 36)  # clamped at 1/n^2
    assert rep.delta == 0.0 and chk.holds

    rep = concentration(profile(tuple(2**i for i in range(10))))
    assert theorem_check(rep, C=1.0).holds  # ln2 <= sqrt(ln2)
    assert not theorem_check(rep, C=0.5).holds  # ln2 > 0.5*sqrt(ln2)
    chk = theorem_check(rep, C=0.5)
    assert chk.bound == pytest.approx(0.5 * math.sqrt(math.log(2)))
