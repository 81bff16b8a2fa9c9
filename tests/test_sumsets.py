from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticonc.errors import BadParams, BudgetExceeded, work_limit
from anticonc.subsetsum import CubeSet, fiber, unique_preimages
from anticonc.sumsets import (
    MultiSumset,
    check_injectivity,
    density_ratio_max,
    iterated_sumset,
    partition_total,
)
from conftest import brute_first_collision, brute_ksum_counts, pascal_binom

cube_sets = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.sets(
        st.tuples(*([st.integers(min_value=0, max_value=1)] * n)),
        min_size=1,
        max_size=2**n,
    ).map(lambda vs: CubeSet.from_vectors(n, vs))
)


def _mask_sets(n, min_size=1):
    """CubeSets of n coordinates drawn as sets of masks."""
    masks = st.sets(st.integers(min_value=0, max_value=2**n - 1), min_size=min_size)
    return masks.map(lambda ms: CubeSet(n=n, masks=tuple(sorted(ms))))


cube_set_pairs = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(_mask_sets(n), _mask_sets(n))
)


def _cs(*vectors):
    return CubeSet.from_vectors(len(vectors[0]), vectors)


def test_cube_set_validation():
    s = _cs((0, 1), (1, 0))
    assert len(s) == 2 and (0, 1) in s and (1, 1) not in s
    assert list(s) == [(0, 1), (1, 0)]
    with pytest.raises(BadParams):
        _cs((0, 2))
    with pytest.raises(BadParams):
        _cs((0, 1), (0,))
    assert len(CubeSet.from_vectors(1, [])) == 0  # empty sets are legal


def test_iterated_sumset_examples():
    b = _cs((1, 0), (0, 1))
    ms = iterated_sumset(b, 2)
    assert dict(ms.items()) == {(0, 2): 1, (1, 1): 2, (2, 0): 1}
    assert ms.support_size == 3 and sum(ms.entries.values()) == 4
    counts = dict(ms.items())
    assert counts.get((1, 1), 0) == 2 and counts.get((2, 2), 0) == 0

    single = iterated_sumset(_cs((1, 1, 0)), 3)
    assert dict(single.items()) == {(3, 3, 0): 1}

    full = iterated_sumset(_cs((0,), (1,)), 3)
    assert dict(full.items()) == {(0,): 1, (1,): 3, (2,): 3, (3,): 1}

    with pytest.raises(BadParams):
        iterated_sumset(b, 0)


def test_iterated_sumset_budget():
    b = _cs((0, 0), (0, 1), (1, 0), (1, 1))
    with work_limit(10), pytest.raises(BudgetExceeded):
        iterated_sumset(b, 3)


def test_sumset_work_priced_per_step():
    # |B| = 4 sums, then one round of |B|^2 = 16 dict updates: 20 steps of 20
    # units; partition then makes |A| * |2B| * n = 4 * 9 * 2 coordinate checks
    b = _cs((0, 0), (0, 1), (1, 0), (1, 1))
    with work_limit(400):
        assert iterated_sumset(b, 2).support_size == 9
    with work_limit(399), pytest.raises(BudgetExceeded):
        iterated_sumset(b, 2)
    with work_limit(1440):
        assert partition_total(b, b, 2) == 1
    with work_limit(1439), pytest.raises(BudgetExceeded):
        partition_total(b, b, 2)


@given(cube_sets, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_sumset_paths_agree(b, k):
    fast = iterated_sumset(b, k)
    assert sum(fast.entries.values()) == len(b) ** k
    assert dict(fast.items()) == brute_ksum_counts(set(b), k)
    for v, m in fast.items():
        assert m >= 1 and all(0 <= x <= k for x in v)


def test_multisumset_items_sorted():
    b = _cs((1, 0), (0, 1), (1, 1))
    vecs = [v for v, _ in iterated_sumset(b, 2).items()]
    assert vecs == sorted(brute_ksum_counts(set(b), 2))


@given(
    st.integers(min_value=1, max_value=14).flatmap(lambda n: _mask_sets(n, 0)),
    st.integers(min_value=2, max_value=36),
)
@settings(max_examples=80, deadline=None)
def test_spread_reads_masks_in_radix(cube, radix):
    # n up to 14 crosses spread's 12-bit chunks
    got = cube.spread(radix)
    assert got == [int(format(m, "b"), radix) for m in cube.masks]
    assert got == sorted(got)


@given(cube_set_pairs, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_injectivity_matches_collision_oracle(ab, k):
    a, b = ab
    res = check_injectivity(a, b, k)
    first = brute_first_collision(set(a), set(b), k)
    assert res.holds == (first is None)
    if res.holds:
        assert res.witness is None
        return
    ksums = brute_ksum_counts(set(b), k)
    (a1, c1), (a2, c2) = res.witness
    assert (a1, c1) != (a2, c2)
    assert a1 in a and a2 in a and c1 in ksums and c2 in ksums
    assert [x + y for x, y in zip(a1, c1)] == [x + y for x, y in zip(a2, c2)]
    # A is scanned in lexicographic order: the witness names the least a
    # that collides with a smaller one
    assert a1 < a2 == first


def test_injectivity_examples():
    a = _cs((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
    b = _cs((0, 0, 1), (0, 1, 0), (1, 0, 0))
    res = check_injectivity(a, b, 1)
    assert res.holds and res.witness is None

    res = check_injectivity(_cs((0, 0), (1, 1)), _cs((1, 0), (0, 1)), 1)
    assert res.holds

    res = check_injectivity(_cs((0, 0), (1, 1)), _cs((0, 0), (1, 1)), 1)
    assert not res.holds
    (a1, c1), (a2, c2) = res.witness
    assert (a1, c1) != (a2, c2)
    assert tuple(x + y for x, y in zip(a1, c1)) == tuple(
        x + y for x, y in zip(a2, c2)
    )

    with pytest.raises(BadParams):
        check_injectivity(_cs((0,)), _cs((0, 1)), 1)


@given(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6).map(
        tuple
    ),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_injectivity_on_unique_preimages(w, k):
    # distinct subset sums + a single fiber: sums a+c determine (a, c)
    n = len(w)
    a = CubeSet.from_vectors(n, unique_preimages(w))
    counts = {}
    for v in a:
        s = sum(x * y for x, y in zip(w, v))
        counts[s] = counts.get(s, 0) + 1
    target = max(counts, key=lambda s: (counts[s], -s))
    fib = fiber(w, target)
    b = CubeSet.from_vectors(n, fib)
    # every member of a fiber shares one weighted sum, so a+c pins down
    # a's sum, hence a, hence c: this must hold for every w and k
    res = check_injectivity(a, b, k)
    assert res.holds and res.witness is None


def test_density_examples():
    full = _cs((0,), (1,))
    assert density_ratio_max(full, 1) == Fraction(1)
    assert density_ratio_max(full, 3) == Fraction(1)

    three = _cs((0, 0, 1), (0, 1, 0), (1, 0, 0))
    got = density_ratio_max(three, 2)
    assert got == Fraction(64, 9) == Fraction(2**3, 3) ** 2


@given(cube_sets, st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_density_bound(b, k):
    got = density_ratio_max(b, k)
    assert 0 < got <= Fraction(2 ** b.n, len(b)) ** k
    # the bound is tight exactly when every k-sum lands on one fiber shape
    counts = brute_ksum_counts(set(b), k)
    shift = 1 << (k * b.n)
    best = max(
        Fraction(m * shift, len(b) ** k * _prod_binom(k, v))
        for v, m in counts.items()
    )
    assert got == best


def _prod_binom(k, v):
    out = 1
    for x in v:
        out *= pascal_binom(k, x)
    return out


@given(cube_sets, cube_sets, st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_partition_total_is_one(a, b, k):
    if a.n != b.n:
        a = CubeSet.from_vectors(b.n, [(0,) * b.n])
    assert partition_total(a, b, k) == Fraction(1)


def test_partition_bad_params():
    with pytest.raises(BadParams):
        partition_total(_cs((0,)), _cs((0, 1)), 1)
