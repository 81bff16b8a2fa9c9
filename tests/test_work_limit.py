"""The scoped work limit: ``errors.work_limit`` sets the limit that the
enumeration charges read through ``errors.budget()``, and nothing else."""

import inspect
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anticonc
from anticonc.errors import WORK_LIMIT, TooLarge, budget, work_limit
from anticonc.frontier import SweepConfig, _sweep_work, sweep_points
from anticonc.lemmas import (
    DEFAULT_ENUM_BUDGET,
    _limbs,
    block_construction,
    block_theory,
    ratio_moment,
    sup_ratio_exact,
    sup_ratio_mc,
)
from anticonc.numerics import PI, Exp, Rat, binomial_row, interval
from anticonc.subsetsum import CubeSet, _slot_format, fiber, unique_preimages
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


def _defaults_in_force():
    return budget() == WORK_LIMIT and budget(DEFAULT_ENUM_BUDGET) == DEFAULT_ENUM_BUDGET


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


def test_no_public_callable_takes_budget():
    for name in anticonc.__all__:
        value = getattr(anticonc, name)
        if not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters
        except (TypeError, ValueError):  # a signature Python cannot read
            continue
        assert "budget" not in params, name
