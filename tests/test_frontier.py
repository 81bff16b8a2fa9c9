import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticonc import frontier
from anticonc.errors import BadParams, BudgetExceeded, InvariantViolated, work_limit
from anticonc.frontier import (
    AuditReport,
    FrontierPoint,
    SweepConfig,
    audit,
    pareto_subset,
    sweep_points,
)
from anticonc.subsetsum import _slot_format, concentration, profile
from conftest import audit_oracle, canonical_vectors, canonicalize

weights_st = st.lists(
    st.integers(min_value=-20, max_value=20), min_size=1, max_size=8
).map(tuple)


def test_canonicalize_examples():
    assert canonicalize((-2, 4)) == (1, 2)
    assert canonicalize((3, -3, 0)) == (0, 1, 1)
    assert canonicalize((0, 0)) == (0, 0)
    assert canonicalize((7,)) == (1,)
    assert canonicalize((6, 10, 15)) == (6, 10, 15)  # pairwise gcds don't matter


@given(weights_st)
@settings(max_examples=50, deadline=None)
def test_canonicalize_idempotent_and_invariant(w):
    c = canonicalize(w)
    assert canonicalize(c) == c
    assert list(c) == sorted(c) and all(x >= 0 for x in c)
    a = concentration(profile(w))
    b = concentration(profile(c))
    assert (a.rho, a.range_size) == (b.rho, b.range_size)


def test_canonical_vectors_enumeration():
    assert list(canonical_vectors(2, 1)) == [(0, 0), (0, 1), (1, 1)]
    vs = list(canonical_vectors(2, 4))
    assert (2, 4) not in vs and (0, 2) not in vs  # gcd > 1 excluded
    assert (2, 3) in vs and (1, 4) in vs
    assert vs == sorted(vs)
    for v in vs:
        assert canonicalize(v) == v
    assert list(canonical_vectors(3, 0)) == [(0, 0, 0)]


def test_sweep_config_validation():
    with pytest.raises(BadParams):
        SweepConfig(n=0, max_weight=1)
    with pytest.raises(BadParams):
        SweepConfig(n=1, max_weight=-1)
    with pytest.raises(BadParams):
        SweepConfig(n=1, max_weight=1, workers=0)


def test_sweep_budget():
    with work_limit(100), pytest.raises(BudgetExceeded):
        sweep_points(SweepConfig(n=4, max_weight=10))


def test_sweep_workers_agree():
    lone = sweep_points(SweepConfig(n=3, max_weight=4, workers=1))
    pair = sweep_points(SweepConfig(n=3, max_weight=4, workers=2))
    quad = sweep_points(SweepConfig(n=3, max_weight=4, workers=4))
    assert lone == pair == quad
    assert [p.weights for p in lone] == list(canonical_vectors(3, 4))


# Each input reaches one leaf readout: 1-, 2-, 4- and 8-byte slots, tables
# too wide for 2^n (enumerated), and n = 64 and 70, where slots are read as
# a list of ints since no array typecode fits.
WALK_CASES = [(n, mw) for n in range(1, 7) for mw in range(7)] + [
    (8, 3),
    (16, 1),
    (33, 1),
    (2, 200),
    (64, 1),
    (70, 2),
]


def _with(p, **changes):
    """The point p with the given fields changed, built from its fields."""
    return FrontierPoint(**{**{f: getattr(p, f) for f in FrontierPoint._fields}, **changes})


def _point(w):
    """The frontier point of w from the library's own profile, one vector
    at a time: the reference the walk's shared prefixes must reproduce."""
    rep = concentration(profile(w))
    return FrontierPoint(w, rep.rho, rep.range_size, rep.epsilon, rep.delta)


def test_sweep_walk_matches_per_vector():
    def key(points):
        return [
            (p.weights, p.rho, p.range_size, p.epsilon.hex(), p.delta.hex())
            for p in points
        ]

    for n, mw in WALK_CASES:
        walked = sweep_points(SweepConfig(n=n, max_weight=mw))
        alone = [_point(w) for w in canonical_vectors(n, mw)]
        assert key(walked) == key(alone), (n, mw)
        # the walk builds its points without __init__: they still compare,
        # hash and print as the constructor's do
        assert walked == alone, (n, mw)
        assert list(map(hash, walked)) == list(map(hash, alone)), (n, mw)
        assert list(map(repr, walked)) == list(map(repr, alone)), (n, mw)


def test_sweep_price_matches_walk():
    # the table bytes of every internal node the walk visits, plus the leaves
    for n, mw in WALK_CASES:
        width = _slot_format(n)[0]
        internal = sum(
            width * (sum(p) + 1)
            for j in range(1, n)
            for p in itertools.combinations_with_replacement(range(mw + 1), j)
        )
        leaves = math.comb(mw + n, n)
        price = internal + frontier._LEAF_COST * leaves
        assert frontier._sweep_work(n, mw, width, 10**30) == price, (n, mw)


def test_enumerate_frontier_examples():
    pts = pareto_subset(sweep_points(SweepConfig(n=2, max_weight=1)))
    assert [p.weights for p in pts] == [(0, 0), (1, 1)]
    zero, ones = pts
    assert zero.rho == 1 and zero.range_size == 1
    assert ones.rho == Fraction(1, 2) and ones.range_size == 3

    pts = pareto_subset(sweep_points(SweepConfig(n=1, max_weight=1)))
    assert [(p.weights, p.rho) for p in pts] == [
        ((0,), Fraction(1)),
        ((1,), Fraction(1, 2)),
    ]

    pts = pareto_subset(sweep_points(SweepConfig(n=3, max_weight=0)))
    assert [p.weights for p in pts] == [(0, 0, 0)]


def test_pareto_keeps_best_range_per_rho():
    pts = sweep_points(SweepConfig(n=3, max_weight=3))
    frontier = pareto_subset(pts)
    seen = {}
    for p in pts:
        cur = seen.get(p.rho)
        if cur is None or p.range_size > cur:
            seen[p.rho] = p.range_size
    assert {p.rho: p.range_size for p in frontier} == seen
    assert [p.weights for p in frontier] == sorted(p.weights for p in frontier)
    # ties on (rho, range) resolve to the lexicographically first vector
    for p in frontier:
        rivals = [
            q.weights
            for q in pts
            if q.rho == p.rho and q.range_size == p.range_size
        ]
        assert p.weights == min(rivals)


def test_pareto_groups_by_rho_value():
    # equal rho held in distinct Fraction objects form one group; a strictly
    # larger |R| replaces the incumbent, a tie keeps the first point seen
    half, other = Fraction(2, 4), Fraction(1, 2)
    assert half is not other
    a = FrontierPoint((0, 1), half, 2, math.log(2) / 2, math.log(2) / 2)
    b = FrontierPoint((1, 1), other, 3, math.log(2) / 2, math.log(3) / 2)
    assert pareto_subset([a, b]) == [b]
    assert pareto_subset([b, a]) == [b]
    tie = _with(a, range_size=3)
    assert pareto_subset([tie, b]) == [tie]
    assert pareto_subset([b, tie]) == [b]


def test_sweep_shares_equal_answers():
    # leaves with equal (rho, |R|) share one rho and one pair of floats
    pts = sweep_points(SweepConfig(n=4, max_weight=4))
    first = {}
    for p in pts:
        q = first.setdefault((p.rho, p.range_size), p)
        assert p.rho is q.rho and p.epsilon is q.epsilon and p.delta is q.delta
    assert len(first) < len(pts)


# The last point of each sweep takes one leaf readout: 1-, 2-, 4- and 8-byte
# slots, the enumerated branch, and the int lists of n = 64 and 70.
READOUT_CASES = [(2, 1), (8, 3), (16, 1), (33, 1), (2, 200), (64, 1), (70, 2)]


def test_frontier_point_frozen_and_slotted():
    for n, mw in READOUT_CASES:
        p = sweep_points(SweepConfig(n=n, max_weight=mw))[-1]
        assert type(p) is FrontierPoint and not hasattr(p, "__dict__"), (n, mw)
        with pytest.raises(AttributeError, match="cannot assign"):
            p.range_size = 4
        with pytest.raises(AttributeError, match="cannot assign"):
            del p.rho
        same, other = _with(p), _with(p, range_size=p.range_size + 1)
        assert same == p and hash(same) == hash(p) and repr(same) == repr(p), (n, mw)
        assert other != p and other.weights == p.weights, (n, mw)
        back = pickle.loads(pickle.dumps(p))
        assert type(back) is FrontierPoint and not hasattr(back, "__dict__"), (n, mw)
        assert back == p and hash(back) == hash(p) and repr(back) == repr(p), (n, mw)
    p = sweep_points(SweepConfig(n=2, max_weight=1))[-1]
    with pytest.raises(AttributeError, match="cannot assign"):
        p.range_size = 4
    q = _with(p, range_size=4)
    assert (q.weights, q.rho, q.range_size) == ((1, 1), Fraction(1, 2), 4)
    assert p.range_size == 3 and hash(p) == hash(_with(p))
    assert not hasattr(p, "__dict__")


def test_audit_ratio_extremes():
    pts = sweep_points(SweepConfig(n=2, max_weight=1))
    rep = audit(pts, C=20.0)
    assert isinstance(rep, AuditReport)
    assert rep.points == 3 and rep.within_c
    # (1,1): rho = 1/2, |R| = 3 -> delta/eps = ln3/ln2
    assert rep.max_delta_over_eps == pytest.approx(math.log(3) / math.log(2))
    assert rep.argmax_delta_over_eps == (1, 1)
    assert rep.exceeding_2eps == ()  # 3 * (1/2)^2 = 3/4 stays below 1


def test_audit_2eps_is_exact():
    # no swept vector has |R|*rho^2 > 1, so the point that does is built by
    # hand: |R| = 2, rho = 3/4 keeps |R|*rho >= 1 and gives |R|*rho^2 = 9/8
    over = FrontierPoint(
        (5, 5), Fraction(3, 4), 2, math.log(4 / 3) / 2, math.log(2) / 2)
    pts = sweep_points(SweepConfig(n=2, max_weight=1)) + [over]
    expected = [
        p.weights
        for p in pts
        if p.range_size * p.rho.numerator**2 > p.rho.denominator**2
    ]
    assert expected == [(5, 5)]
    assert list(audit(pts).exceeding_2eps) == expected


def test_audit_zero_vector_ratio_is_one():
    # rho = 1 gives eps = delta = 0; the ratio is 1 by convention
    (zero,) = sweep_points(SweepConfig(n=3, max_weight=0))
    assert zero.rho == 1 and zero.epsilon == 0.0 and zero.delta == 0.0
    rep = audit([zero])
    assert rep.max_delta_over_eps == 1.0
    assert rep.argmax_delta_over_eps == (0, 0, 0)
    assert rep.exceeding_2eps == ()


def test_audit_rejects_doctored_point():
    good = sweep_points(SweepConfig(n=2, max_weight=2))
    bad = _with(good[0], rho=Fraction(1, 100), range_size=1)
    with pytest.raises(InvariantViolated):
        audit(good + [bad])
    with pytest.raises(BadParams):
        audit([])


def _audit_outcome(points, C):
    """audit's report, or the witness it raises InvariantViolated with."""
    try:
        return audit(points, C)
    except InvariantViolated as exc:
        return exc.witness


def test_audit_matches_per_point_oracle():
    # audit decides once per distinct answer; the oracle, once per point
    mix = [p for n in range(1, 6) for p in sweep_points(SweepConfig(n=n, max_weight=6))]
    random.Random(22).shuffle(mix)
    over = FrontierPoint(
        (5, 5), Fraction(3, 4), 2, math.log(4 / 3) / 2, math.log(2) / 2)
    # apart only in n, which clamps eps for the first and not the second
    lone = FrontierPoint((1,), Fraction(1, 2), 4, 0.01, 0.5)
    quad = _with(lone, weights=(1, 1, 1, 1))
    # apart from a swept point (earlier in the list) only in eps
    real = next(p for p in mix if p.rho < 1)
    steep = _with(real, epsilon=real.epsilon / 1000)
    pts = mix + [over, lone, quad, steep]
    for C in (1.0, 20.0):
        expected = AuditReport(**audit_oracle(pts, C))
        assert expected.argmax_delta_over_eps == steep.weights
        assert expected.argmax_delta_over_sqrt_eps == quad.weights
        assert expected.exceeding_2eps == (over.weights,)
        assert _audit_outcome(pts, C) == expected
    # the doctored point, and after it another: the witness is the first
    bad = FrontierPoint((0, 0), Fraction(1, 100), 1, 0.0, 0.0)
    for at in (0, len(mix) // 2, len(pts)):
        doctored = pts[:at] + [bad, _with(bad, weights=(9, 9))] + pts[at:]
        assert audit_oracle(doctored, 20.0) is bad
        assert _audit_outcome(doctored, 20.0) is bad


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=20, deadline=None)
def test_audit_universal_bound_holds(n, mw):
    pts = sweep_points(SweepConfig(n=n, max_weight=mw))
    rep = audit(pts)
    assert rep.max_delta_over_eps >= 1.0
    assert rep.max_delta_over_sqrt_eps >= 0.0
    assert math.isfinite(rep.max_delta_over_sqrt_eps)
