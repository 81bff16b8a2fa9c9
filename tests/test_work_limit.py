"""The scoped run limits: ``errors.work_limit`` sets the limits that the
enumeration charges, the profile kernels, the cube-set builders and
``cmp_bound`` read through ``errors.budget``, and nothing else."""

import inspect
import re
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anticonc
from anticonc.errors import DEFAULT_DP_CAPACITY, DEFAULT_MAX_BITS, DEFAULT_MITM_CAP
from anticonc.errors import DEFAULT_NAIVE_CAP, WORK_LIMIT, TooLarge, Undecidable
from anticonc.errors import budget, work_limit
from anticonc.frontier import SweepConfig, _sweep_work, sweep_points
from anticonc.lemmas import (
    DEFAULT_ENUM_BUDGET,
    Verdict,
    _limbs,
    block_construction,
    block_theory,
    check_initial_bound,
    ratio_moment,
    sup_ratio_exact,
    sup_ratio_mc,
)
from anticonc.numerics import PI, Exp, Mul, Rat, binomial_row, cmp_bound, interval
from anticonc.subsetsum import (
    _SUM_COST,
    CubeSet,
    _slot_format,
    fiber,
    profile,
    profile_dp,
    profile_mitm,
    profile_naive,
    unique_preimages,
)
from anticonc.sumsets import (
    _STEP_COST,
    check_injectivity,
    density_ratio_max,
    iterated_sumset,
    partition_total,
)


def _sumset_price(B, k):
    """iterated_sumset's largest charge: k*|B| steps up front, or the |B|
    sums plus each round's |j*B| * |B| updates, _STEP_COST units a step."""
    rounds = sum(iterated_sumset(B, j).support_size for j in range(1, k))
    return max(k, 1 + rounds) * len(B) * _STEP_COST


def _scan_price(A, B, k, coordinates):
    return max(_sumset_price(B, k),
               len(A) * iterated_sumset(B, k).support_size * coordinates * _STEP_COST)


# the entry points whose charges read the scope, on cube sets A and B of one
# dimension, a sumset order k and a sweep configuration: each call and the
# largest work it charges, at which it answers and below which it refuses
SCOPED = {
    "iterated_sumset": (lambda A, B, k, cfg: iterated_sumset(B, k),
                        lambda A, B, k, cfg: _sumset_price(B, k)),
    "check_injectivity": (lambda A, B, k, cfg: check_injectivity(A, B, k),
                          lambda A, B, k, cfg: _scan_price(A, B, k, 1)),
    "density_ratio_max": (lambda A, B, k, cfg: density_ratio_max(B, k),
                          lambda A, B, k, cfg: _sumset_price(B, k)),
    "partition_total": (lambda A, B, k, cfg: partition_total(A, B, k),
                        lambda A, B, k, cfg: _scan_price(A, B, k, B.n)),
    "sweep_points": (lambda A, B, k, cfg: sweep_points(cfg),
                     lambda A, B, k, cfg: _sweep_work(
                         cfg.n, cfg.max_weight, _slot_format(cfg.n)[0], 10**18)),
    "sup_ratio_exact": (lambda A, B, k, cfg: sup_ratio_exact(A, k),
                        lambda A, B, k, cfg: (k + 1) ** A.n * (len(A) + 1) * _limbs(A.n, k)),
}
REFUSAL = re.compile(r".* = (\d+) exceeds the limit (\d+)")


def _masks(n):
    masks = st.sets(st.integers(min_value=0, max_value=2**n - 1), min_size=1)
    return masks.map(lambda ms: CubeSet(n=n, masks=tuple(sorted(ms))))


cube_pairs = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(_masks(n), _masks(n)))
sweeps = st.builds(SweepConfig, n=st.integers(min_value=1, max_value=3),
                   max_weight=st.integers(min_value=0, max_value=5))


# the defaults of the limits the scope sets, by name
DEFAULTS = dict(precision_cap_bits=DEFAULT_MAX_BITS, naive_cap=DEFAULT_NAIVE_CAP,
                dp_cap=DEFAULT_DP_CAPACITY, mitm_cap=DEFAULT_MITM_CAP)


def _defaults_in_force():
    return (budget() == WORK_LIMIT and budget(DEFAULT_ENUM_BUDGET) == DEFAULT_ENUM_BUDGET
            and all(budget(v, name) == v for name, v in DEFAULTS.items()))


@given(cube_pairs, st.integers(min_value=1, max_value=3), sweeps,
       st.integers(min_value=1, max_value=10**4))
@settings(max_examples=40, deadline=None)
def test_scoped_entry_points_answer_or_name_the_limit(ab, k, cfg, limit):
    A, B = ab
    for name, (call, price_of) in SCOPED.items():
        expected, price = call(A, B, k, cfg), price_of(A, B, k, cfg)
        try:
            with work_limit(limit):
                got = call(A, B, k, cfg)
        except TooLarge as exc:
            found = REFUSAL.fullmatch(str(exc))
            assert found and limit < int(found[1]) <= price, (name, price, str(exc))
            assert int(found[2]) == limit, name
        else:
            assert limit >= price and got == expected, (name, price, limit)
        assert _defaults_in_force(), name
        # at its price it answers; one unit below, the refusal names the price
        with work_limit(price):
            assert call(A, B, k, cfg) == expected, name
        with pytest.raises(TooLarge, match=f" = {price} exceeds the limit {price - 1}$"):
            with work_limit(price - 1):
                call(A, B, k, cfg)
        assert _defaults_in_force(), name


def _first_refusal(charges):
    """The refusal of the first (work, limit, what) charge over its limit, as
    ``errors.charge`` words it, or None when every charge is within it."""
    for work, limit, what in charges:
        if work > limit:
            return f"{what} = {work} exceeds the limit {limit}"
    return None


def _mitm_charges(w, cap):
    # n, then the distinct half-sum pairs each time a weight folds into a half
    n = len(w)
    charges, limit, halves = [(n, cap, "n")], 1 << min(cap // 2, n), ({0}, {0})
    for pair in zip_longest(w[: n // 2], w[n // 2 :]):
        for half, wi in zip(halves, pair):
            if wi is not None:
                half |= {s + wi for s in half}
                charges.append((len(halves[0]) * len(halves[1]), limit,
                                "distinct half-sum pairs"))
    return charges


# each kernel's charges on w under the caps in force, in the order it makes them
KERNEL_CHARGES = {
    "naive": lambda w, caps: [(len(w), caps["naive_cap"], "n")],
    "dp": lambda w, caps: [
        (sum(map(abs, w)), caps["dp_cap"], "sum range width"),
        (len(w) * _slot_format(len(w))[0] * (sum(map(abs, w)) + 1),
         512 * (caps["dp_cap"] + 1), "sum table bytes moved"),
    ],
    "mitm": lambda w, caps: _mitm_charges(w, caps["mitm_cap"]),
}


def _kernel_refusal(name):
    return lambda w, caps: _first_refusal(KERNEL_CHARGES[name](w, caps))


def _auto_refusal(w, caps):
    """auto's refusal: each kernel's in its order, or None when one answers."""
    order = ("dp", "naive", "mitm") if sum(map(abs, w)) + 1 <= 1 << len(w) else (
        "naive", "mitm", "dp")
    refusals = [(name, _first_refusal(KERNEL_CHARGES[name](w, caps))) for name in order]
    if not all(msg for _, msg in refusals):
        return None
    return "; ".join(f"{name}: {msg}" for name, msg in refusals)


def _cube_refusal(w, caps):
    return _first_refusal([(_SUM_COST << len(w), WORK_LIMIT, "cube-set subset-sum work"),
                           (len(w), caps["naive_cap"], "n")])


# the entry points that read a profile cap: each call and its refusal oracle
CAPPED = [
    (profile_naive, _kernel_refusal("naive")),
    (profile_dp, _kernel_refusal("dp")),
    (profile_mitm, _kernel_refusal("mitm")),
    (profile, _auto_refusal),
    (lambda w: fiber(w, None), _cube_refusal),
    (unique_preimages, _cube_refusal),
]
# a None cap leaves the default in force
cap_scopes = st.fixed_dictionaries(dict(
    naive_cap=st.none() | st.integers(min_value=1, max_value=9),
    dp_cap=st.none() | st.integers(min_value=1, max_value=200),
    mitm_cap=st.none() | st.integers(min_value=1, max_value=12),
))


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=8),
       cap_scopes)
@example([1, 2, 3], dict(naive_cap=2, dp_cap=2, mitm_cap=2))  # all three refuse
@example([1, 2, 4, 8, 16, 33], dict(naive_cap=4, dp_cap=63, mitm_cap=6))
@example([1, 2, 4, 8, 16, 33], dict(naive_cap=4, dp_cap=None, mitm_cap=6))
@settings(max_examples=80, deadline=None)
def test_profile_caps_answer_or_refuse_as_charged(w, scope):
    w = tuple(w)
    caps = {**DEFAULTS, **{name: v for name, v in scope.items() if v is not None}}
    for call, refusal_of in CAPPED:
        expected, refusal = call(w), refusal_of(w, caps)
        try:
            with work_limit(**scope):
                got = call(w)
        except TooLarge as exc:
            assert str(exc) == refusal, (w, scope)
        else:
            assert refusal is None and got == expected, (w, scope)
        assert _defaults_in_force()


def test_cube_sets_charge_their_sums_before_the_cap():
    # the 2^n sums are charged against WORK_LIMIT before n meets naive_cap
    w = (1,) * 22
    for call in (lambda: fiber(w, None), lambda: unique_preimages(w)):
        with work_limit(naive_cap=4), pytest.raises(TooLarge, match=(
                "^cube-set subset-sum work = 167772160 exceeds the limit 100000000$")):
            call()


def _separates(q, expr, cap):
    """Whether cmp_bound's doubling precisions up to ``cap`` place q."""
    if isinstance(expr, Rat):
        return True
    bits = min(128, cap)
    while bits <= cap:
        lo, hi = interval(expr, bits)
        if q < lo or q > hi or lo == hi:
            return True
        bits *= 2
    return False


EXPRS = [PI, Exp(Rat(Fraction(1))), Exp(Mul(Rat(Fraction(1, 3)), PI)),
         Rat(Fraction(1, 2)) + Rat(Fraction(1, 3)), Rat(Fraction(7, 3)),
         Exp(Rat(Fraction(0)))]


@st.composite
def comparisons(draw):
    # a rational, or the midpoint of an enclosure, which only finer ones place
    expr = draw(st.sampled_from(EXPRS))
    q = draw(st.one_of(
        st.fractions(min_value=-1, max_value=12, max_denominator=60),
        st.sampled_from((4, 24, 100, 200, 300)).map(lambda b: sum(interval(expr, b)) / 2),
    ))
    return q, expr


@given(comparisons(), st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_precision_cap_answers_or_is_undecidable(qe, cap, k, s):
    q, expr = qe
    expected = cmp_bound(q, expr)
    try:
        with work_limit(precision_cap_bits=cap):
            got = cmp_bound(q, expr)
    except Undecidable as exc:
        assert str(exc) == f"could not separate {q} from {expr} within {cap} bits"
        assert not _separates(q, expr, cap)
    else:
        assert got is expected and _separates(q, expr, cap)
    # the moment check reads the same cap for both of its comparisons
    rec = check_initial_bound(k, s)
    with work_limit(precision_cap_bits=cap):
        capped = check_initial_bound(k, s)
    assert capped.lhs == rec.lhs and capped.rhs == rec.rhs
    placed = _separates(Fraction(k, 16 * s), PI, cap)
    assert capped.in_hypothesis == (rec.in_hypothesis if placed else None)
    decided = _separates(rec.lhs, rec.rhs, cap)
    assert capped.verdict is (rec.verdict if decided else Verdict.UNDECIDABLE)
    assert _defaults_in_force()


def test_scopes_nest_and_none_changes_nothing():
    assert _defaults_in_force() and budget(7) == 7
    with work_limit(None):
        assert _defaults_in_force()
    with work_limit(50):
        assert budget() == budget(7) == 50
        with work_limit(5):
            assert budget() == 5
        assert budget() == 50
        with work_limit(None):
            assert budget() == 50
    assert _defaults_in_force()
    for name in DEFAULTS:
        with work_limit(**{name: None}):
            assert _defaults_in_force()
        with work_limit(**{name: 30}):
            assert budget(7, name) == 30 and budget() == WORK_LIMIT
            with work_limit(**{name: 3}), work_limit(**{name: None}):
                assert budget(7, name) == 3
            with work_limit(9):  # another name leaves this one in force
                assert budget(7, name) == 30 and budget() == 9
            assert budget(7, name) == 30
        assert _defaults_in_force(), name
    with work_limit(4, naive_cap=5, dp_cap=6, mitm_cap=7, precision_cap_bits=8):
        assert [budget(0, name) for name in ("enum_budget", *DEFAULTS)] == [4, 8, 5, 6, 7]
    assert _defaults_in_force()


def test_unknown_limit_is_a_type_error():
    for kwargs in (dict(cap=3), dict(max_bits=3), dict(dp_capacity=3), dict(budget=3)):
        with pytest.raises(TypeError):
            with work_limit(**kwargs):
                pass
    with pytest.raises(TypeError):  # only the enumeration budget is positional
        with work_limit(1, 2):
            pass
    assert _defaults_in_force()


def test_fixed_charges_ignore_the_scope():
    # Monte Carlo is the route taken when the exact walk is refused, and the
    # Bin(k), interval, block and cube-set builders price fixed-size work:
    # none of them reads the scope
    A = CubeSet(n=2, masks=(1, 2))
    calls = [
        lambda: binomial_row(10),
        lambda: interval(Exp(Rat(Fraction(1, 3))), 64),
        lambda: interval(PI, 64),
        lambda: ratio_moment(5, 2),
        lambda: sup_ratio_mc(A, 3, 50, 1),
        lambda: block_construction(4, 2),
        lambda: block_theory(4, 2),
        lambda: (unique_preimages((1, 2, 2)), fiber((1, 2, 2), None)),
    ]
    for call in calls:
        expected = call()
        with work_limit(1):
            assert call() == expected


# the keyword names a caller once passed a limit by; the scope holds them now
LIMIT_KEYWORDS = {"cap", "capacity", "naive_cap", "dp_capacity", "mitm_cap", "max_bits",
                  "budget"}


def test_no_public_callable_takes_budget():
    # nor any other keyword a limit was once passed by
    for name in anticonc.__all__:
        value = getattr(anticonc, name)
        if not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters
        except (TypeError, ValueError):  # a signature Python cannot read
            continue
        assert not LIMIT_KEYWORDS & set(params), name
