import copy
import itertools
import math
import pickle
import random
import sys
import tracemalloc
from array import array
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticonc import subsetsum
from anticonc.errors import WORK_LIMIT, BadParams, CapacityExceeded, TooLarge, work_limit
from anticonc.subsetsum import (
    CubeSet,
    SumProfile,
    as_weights,
    concentration,
    fiber,
    levy,
    profile,
    profile_dp,
    profile_mitm,
    profile_naive,
    unique_preimages,
)
from conftest import (
    brute_profile,
    brute_rho_tau_range,
    tuple_fiber,
    tuple_unique_preimages,
    window_oracle,
)


class Color(IntEnum):
    RED = 1
    BLUE = 2


weights_st = st.lists(
    st.integers(min_value=-30, max_value=30), min_size=1, max_size=10
).map(tuple)


def test_as_weights():
    assert as_weights([1, -2, 0]) == (1, -2, 0)
    assert as_weights([Fraction(4, 2)]) == (2,)
    # entries other than plain ints take the checked path among plain ints
    mixed = as_weights([3, Color.BLUE, Fraction(4, 1), -1])
    assert mixed == (3, 2, 4, -1) and mixed[1] is Color.BLUE
    assert type(mixed[2]) is int
    with pytest.raises(BadParams):
        as_weights([])
    with pytest.raises(BadParams):
        as_weights([1.5])
    with pytest.raises(BadParams):
        as_weights([Fraction(1, 2)])
    with pytest.raises(BadParams):
        as_weights([True])
    for bad in (True, 1.0, Fraction(1, 2)):
        with pytest.raises(BadParams):
            as_weights([1, 2, bad, 3])


def test_profile_examples():
    assert profile_naive((0, 0, 0)).as_dict() == {0: 8}
    assert profile_naive((1, 10, 100)).as_dict() == {
        s: 1 for s in (0, 1, 10, 11, 100, 101, 110, 111)
    }
    assert profile_naive((1, 1, 1)).as_dict() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert profile_dp((1, 1, 1)).as_dict() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert profile_dp((0, 0)).as_dict() == {0: 4}
    assert profile_dp((-1, 1)).as_dict() == {-1: 1, 0: 2, 1: 1}
    assert profile_mitm((1, 1, 1, 1)).as_dict() == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    assert profile_mitm((1, 2, 4, 8)).range_size == 16
    assert profile_mitm((5,)).as_dict() == {0: 1, 5: 1}


def test_profile_dp_slot_width():
    # slots of 1, 2, 4, 8, then n//8 + 1 bytes hold 2^n; at n = 8, 16, 32 and
    # 64 only the count 2^n of the zero vector needs the wider slot
    for n in (7, 8, 15, 16, 31, 32, 63, 64, 70):
        assert profile_dp((1,) * n).as_dict() == {
            j: math.comb(n, j) for j in range(n + 1)
        }
        assert profile_dp((0,) * n).as_dict() == {0: 2**n}
    for b in (1, 32, 63):
        w = (1,) * (64 - b) + (-1,) * b
        assert profile_dp(w).as_dict() == {j - b: math.comb(64, j) for j in range(65)}
    # beyond every enumerator cap, auto has only the table
    assert profile((1,) * 70) == profile_dp((1,) * 70)


def test_profile_caps():
    with pytest.raises(TooLarge), work_limit(naive_cap=4):
        profile_naive((1,) * 5)
    with pytest.raises(CapacityExceeded), work_limit(dp_cap=150):
        profile_dp((100, 100))
    # the bytes the shift-adds move are charged against 512 * (dp_cap + 1):
    # 200 * 26 * 201 bytes at n = 200 is over it, while no n < 64 can be
    with pytest.raises(TooLarge), work_limit(dp_cap=200):
        profile_dp((1,) * 200)
    with work_limit(dp_cap=63):
        assert profile_dp((1,) * 63).range_size == 64
    with pytest.raises(TooLarge), work_limit(mitm_cap=4):
        profile_mitm((1,) * 5)
    with pytest.raises(TooLarge), work_limit(naive_cap=4, dp_cap=2, mitm_cap=4):
        profile((1,) * 5, "auto")
    # meet in the middle is charged for its 2^10 * 2^10 distinct half-sum pairs
    with pytest.raises(TooLarge), work_limit(mitm_cap=20):
        profile_mitm(tuple(2**i for i in range(20)))
    with pytest.raises(TooLarge):
        profile(tuple(3**i for i in range(30)))
    # while collisions keep a wide-span n = 30 cheap
    rep = concentration(profile((10**8,) * 30))
    assert rep.range_size == 31 and rep.rho == Fraction(math.comb(30, 15), 2**30)
    with pytest.raises(BadParams):
        profile((1,), "fancy")


def test_profile_auto_routes_around_capacity():
    # sum range too wide for the table, small enough to enumerate
    big = (10**9, 2 * 10**9, 3 * 10**9)
    assert profile(big).as_dict() == brute_profile(big)
    # span + 1 = 65 slots is over 2^6 sums, so naive goes first; a refusal
    # passes the vector on: past the naive cap, meet in the middle refuses
    # its 8 * 8 half-sum pairs against 2^3, and the table answers
    w = (1, 2, 4, 8, 16, 33)
    with work_limit(naive_cap=4, mitm_cap=6):
        got = profile(w)
    assert got == profile_naive(w)
    # when every algorithm refuses, one TooLarge names each refusal in order
    with pytest.raises(TooLarge, match="^naive: .*; mitm: .*; dp: "):
        with work_limit(naive_cap=4, dp_cap=63, mitm_cap=6):
            profile(w)
    # 2^0..2^5 needs 64 = 2^6 slots, so the table goes first
    w = tuple(2**i for i in range(6))
    with pytest.raises(TooLarge, match="^dp: .*; naive: .*; mitm: "):
        with work_limit(naive_cap=4, dp_cap=62, mitm_cap=6):
            profile(w)


def wide_weights(n: int, span: int, seed: int) -> tuple:
    """n nonzero weights of random sign whose magnitudes sum to span."""
    rng = random.Random(seed)
    edges = [0, *sorted(rng.sample(range(1, span), n - 1)), span]
    return tuple(rng.choice((1, -1)) * (b - a) for a, b in zip(edges, edges[1:]))


def test_profile_auto_takes_table_within_2_to_the_n_slots(kernel_calls):
    # wide n = 17, 18 vectors up to span 2^n - 1 go to the table, one past it to naive
    cases = [(17, 10**5, "dp"), (18, 5 * 10**4, "dp"), (17, 2**17 - 1, "dp"), (17, 2**17, "naive")]
    for seed, (n, span, kernel) in enumerate(cases):
        w = wide_weights(n, span, seed)
        kernel_calls.clear()
        p = profile(w)
        assert kernel_calls == [kernel], (sum(map(abs, w)), kernel_calls)
    assert p == profile_dp(w)


def test_profile_mitm_refuses_before_building():
    # the half-sum pairs are charged as the halves grow, so 2^40 distinct
    # sums are refused after about 2^24 pairs' worth of work
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            profile_mitm(tuple(2**i for i in range(40)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@given(weights_st)
@example((0, -3, 0, 5))
@example((-2, 0, 0, 7, -2))
@example((0, 0, 0, 0, -1))
@settings(max_examples=80, deadline=None)
def test_profiles_agree_with_oracle(w):
    expected = brute_profile(w)
    assert profile_naive(w).as_dict() == expected
    assert profile_dp(w).as_dict() == expected
    assert profile_mitm(w).as_dict() == expected
    assert profile(w).as_dict() == expected


@given(weights_st, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_profile_permutation_invariance(w, rng):
    shuffled = list(w)
    rng.shuffle(shuffled)
    assert profile_dp(w) == profile_dp(tuple(shuffled))


@given(weights_st, st.data())
@settings(max_examples=40, deadline=None)
def test_profile_sign_flip_translates(w, data):
    i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
    flipped = tuple(-x if j == i else x for j, x in enumerate(w))
    base = profile_dp(w).as_dict()
    moved = profile_dp(flipped).as_dict()
    assert moved == {s - w[i]: c for s, c in base.items()}


@given(weights_st, st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_profile_scaling_preserves_counts(w, m):
    base = profile_dp(w)
    scaled = profile_dp(tuple(m * x for x in w))
    assert scaled.as_dict() == {m * s: c for s, c in base.items()}
    assert concentration(base).rho == concentration(scaled).rho


def test_profile_forms_compare_alike():
    w = (3, -1, 4, 1, -5, 9)
    dense, enumerated = profile_dp(w), profile_naive(w)
    assert dense == enumerated == profile_mitm(w)
    assert enumerated == SumProfile.from_counts(len(w), brute_profile(w))
    assert hash(dense) == hash(enumerated) and len({dense, enumerated}) == 1
    assert (dense.sums, dense.counts) == (enumerated.sums, enumerated.counts)
    assert dense.range_size == enumerated.range_size == len(brute_profile(w))
    assert dense != profile_dp(w[:-1] + (-9,)) and dense != profile_dp(w[:-1])


def test_profile_validation():
    with pytest.raises(BadParams):
        SumProfile(n=2, sums=(0, 1), counts=(1, 2))  # does not total 4
    with pytest.raises(BadParams):
        SumProfile(n=1, sums=(1, 0), counts=(1, 1))  # not increasing
    with pytest.raises(BadParams):
        SumProfile(n=1, sums=(0, 1), counts=(2, 0))  # a zero count
    with pytest.raises(BadParams):
        SumProfile(n=0, sums=(), counts=())  # empty
    # a subset-sum profile is a palindrome about half the total (xi -> 1 - xi)
    with pytest.raises(BadParams, match="symmetric"):
        SumProfile(n=2, sums=(0, 1, 3), counts=(2, 1, 1))  # counts not mirrored
    with pytest.raises(BadParams, match="symmetric"):
        SumProfile(n=2, sums=(0, 1, 3), counts=(1, 2, 1))  # sums not mirrored
    with pytest.raises(BadParams, match="symmetric"):
        SumProfile.from_counts(2, {0: 2, 1: 1, 2: 1})  # sums mirrored, counts not


def test_concentration_examples():
    rep = concentration(profile_naive((1, 1, 1)))
    assert (rep.rho, rep.tau, rep.range_size) == (Fraction(3, 8), 1, 4)
    rep = concentration(profile_naive((0,) * 6))
    assert (rep.rho, rep.tau, rep.range_size) == (Fraction(1), 0, 1)
    assert rep.epsilon == rep.delta == 0.0
    rep = concentration(profile_naive((1, 10, 100)))
    assert (rep.rho, rep.tau, rep.range_size) == (Fraction(1, 8), 0, 8)


def test_concentration_tau_tie_break():
    # counts: {-2:1, -1:2, 0:2, 1:2, 2:1}; the smallest max-count sum wins
    rep = concentration(profile_naive((1, 1, -2)))
    assert rep.tau == -1 and rep.rho == Fraction(1, 4)


@given(weights_st)
@settings(max_examples=60, deadline=None)
def test_concentration_matches_oracle(w):
    rep = concentration(profile_dp(w))
    rho, tau, rng = brute_rho_tau_range(w)
    assert (rep.rho, rep.tau, rep.range_size) == (rho, tau, rng)
    assert rep.delta >= rep.epsilon - 1e-12
    assert Fraction(1, 2 ** len(w)) <= rep.rho <= 1


def kernel_profiles(w) -> tuple:
    return profile_naive(w), profile_dp(w), profile_mitm(w)


def test_levy_examples():
    for p in kernel_profiles((1, 1, 1)):
        assert levy(p, 0) == (Fraction(1), Fraction(3, 8))
        assert levy(p, 1) == (Fraction(1), Fraction(7, 8))
        assert levy(p, 3) == (Fraction(3, 2), Fraction(1))
        assert levy(p, Fraction(1, 2)) == (Fraction(3, 2), Fraction(6, 8))
        with pytest.raises(BadParams):
            levy(p, -1)
    # slots 1 1 0 2 2 0 1 1 from sum 0: the first best width-2 window starts
    # at the empty slot 2, and its first sum is 3
    for p in kernel_profiles((3, 3, 1)):
        assert levy(p, 1) == (Fraction(7, 2), Fraction(1, 2))


@given(weights_st)
@settings(max_examples=40, deadline=None)
def test_levy_radius_zero_is_concentration(w):
    for p in kernel_profiles(w):
        rep = concentration(p)
        assert levy(p, 0) == (rep.tau, rep.rho)


# radii in thirds give 2r every fractional part a floor must drop: 0, 1/3, 2/3
thirds_st = st.integers(min_value=0, max_value=240).map(lambda m: Fraction(m, 3))
# entries of at most 4 repeat, with zeros and both signs, so most sums collide
colliding_st = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=1, max_size=12
).map(tuple)


@given(weights_st | colliding_st, thirds_st | st.just(Fraction(1, 2)))
@example((3, 3, 1), Fraction(1))  # the first best start over all slots is empty
@example((3, 3, 1), Fraction(7, 2))  # 2r = span
@example((-4, 9, 2), Fraction(100))  # 2r > span
@example((2, 2, 0, -2, 0, 2), Fraction(3, 2))  # symmetric: best windows tie
@example((5, -5, 5, -5, 1), Fraction(9, 4))
@example((1,) * 12, Fraction(1, 2))  # 13 sums, one window over each pair
@example((4, -3, 4, -3, 2, 0, 0, 1, -1, 4, 3, -4), Fraction(46, 3))  # 2r > span
@settings(max_examples=80, deadline=None)
def test_levy_matches_window_oracle(w, r):
    # naive and meet in the middle slide one window over their sums, dp reads
    # its slots by packed prefixes: all three against the oracle
    tau, best = window_oracle(brute_profile(w), r)
    for p in kernel_profiles(w):
        assert levy(p, r) == (tau, Fraction(best, 2 ** len(w)))


def test_levy_on_tables_of_many_packed_steps():
    # spans past _LEVY_STARTS slots, so masses come from several steps, at
    # every array slot width; every profile is symmetric, so best windows tie
    # across them.  About _LEVY_STARTS a step starts to take width starts,
    # and the last two widths cover the whole table
    starts = subsetsum._LEVY_STARTS
    tables = (
        (wide_weights(12, 3 * starts, 5), profile_naive),  # 2-byte slots
        (tuple(map(abs, wide_weights(11, 5 * starts // 2, 6))), profile_naive),
        (wide_weights(17, 3 * starts, 8), profile_naive),  # 4-byte slots
        ((1500,) * 16 + (-1499,) * 16 + (3,), profile_mitm),  # 8-byte slots, 578 sums
    )
    for w, enumerate_sums in tables:
        dense, enumerated = profile_dp(w), enumerate_sums(w)
        size = len(dense._slots)
        # up to width 1000, the starts levy scans, the lower half's, take two steps
        assert (size - 1000 + 1) // 2 > starts
        for width in (0, 1, 2, 7, 1000, starts - 1, starts, starts + 1, 2 * starts,
                      size - 1, size + 4):
            r = Fraction(width, 2)
            assert levy(dense, r) == levy(enumerated, r), (w, width)


# Readers scan a profile's lower half.  The edges of that half, in byte tables
# (n < 8), array tables (n >= 8) and the enumerated profiles of the same
# vectors: {w: (table size, its middle slot, or None at an even size)}.  The
# best window of (1,)*8 at r = 1 is [3, 5], across the middle; mirrored best
# windows tie, so the least midpoint wins, in (1,)*8 at r = 1/2 ([3, 4] and
# [4, 5]), (1,)*7 at r = 1 ([2, 4] and [3, 5]) and (2,)*7 + (4,) at r = 1/2
# ([8, 9] and [9, 10], over a zero middle)
HALF_SCAN_EDGES = {
    (2,) * 5 + (4,): (15, 0),
    (2,) * 7 + (4,): (19, 0),
    (1,) * 6: (7, 20),
    (1,) * 8: (9, 70),
    (1,) * 7: (8, None),
    (1,) * 9: (10, None),
    (3, 3, 1): (8, None),
}


@pytest.mark.parametrize("w", HALF_SCAN_EDGES)
def test_half_scans_at_their_edges(w):
    size, middle = HALF_SCAN_EDGES[w]
    slots = profile_dp(w)._slots
    assert len(slots) == size and (middle is None or slots[size // 2] == middle)
    rho, tau, range_size = brute_rho_tau_range(w)
    for p in kernel_profiles(w):
        rep = concentration(p)
        assert p.range_size == range_size
        assert (rep.rho, rep.tau, rep.range_size) == (rho, tau, range_size)
        for r in (0, Fraction(1, 2), 1, Fraction(3, 2), 2, 5, 100):
            mid, best = window_oracle(brute_profile(w), r)
            assert levy(p, r) == (mid, Fraction(best, 2 ** len(w))), (w, r)


def test_levy_on_sparse_wide_table_allocates_no_slot_objects():
    # 31 sums over 3 * 10^5 + 1 four-byte slots, table-first: levy holds
    # about 1 MB of packed steps, not an object per slot (a list of masses
    # would take over 8 MB)
    p = profile((10**4,) * 30)
    assert p == profile_mitm((10**4,) * 30)
    slot_bytes = subsetsum._slot_format(30)[0] * (3 * 10**5 + 1)
    tracemalloc.start()
    try:
        tau, prob = levy(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tau, prob) == (15 * 10**4, Fraction(math.comb(30, 15), 2**30))
    assert peak < slot_bytes + 2**20, peak


def test_levy_peak_grows_with_the_window():
    # the same table: with no prefix, a narrow window's steps take 0.3 of the
    # slot bytes (a prefix over half the slots took 0.8); at r = 1.4 * 10^5
    # one step reads 2.9 * 10^5 slots as one int, and x, its shift and the
    # division's working copy peak near 3.1 times the slot bytes
    p = profile((10**4,) * 30)
    slot_bytes = subsetsum._slot_format(30)[0] * (3 * 10**5 + 1)
    for r, bound, mass in ((1, 0.5, math.comb(30, 15)), (Fraction(14 * 10**4), 3.5, 2**30 - 2)):
        tracemalloc.start()
        try:
            tau, prob = levy(p, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tau, prob) == (15 * 10**4, Fraction(mass, 2**30)), r
        assert peak < bound * slot_bytes, (r, peak / slot_bytes)


@pytest.mark.parametrize("code", "HIQ")
def test_index_resumes_past_a_hit_across_two_items(code):
    # [5, 1, v] with v = 2^(8 * (size - 1)): v's bytes first match across
    # items 0 and 1 (at byte 1 in little-endian order), not at item 2
    size = array(code).itemsize
    value = 1 << 8 * (size - 1)
    seq = array(code, [5, 1, value])
    assert seq.tobytes().find(value.to_bytes(size, sys.byteorder)) % size
    assert subsetsum._index(seq, value) == list(seq).index(value) == 2
    rng = random.Random(size)
    for _ in range(50):
        seq = array(code, (rng.choice((0, 1, 256, value, value + 1)) for _ in range(12)))
        for v in set(seq):
            assert subsetsum._index(seq, v) == list(seq).index(v), (seq, v)
    with pytest.raises(ValueError):
        subsetsum._index(array(code, [5, 1]), value)
    assert subsetsum._index(b"\5\1\0\1", 1) == 1 and subsetsum._index([3, 4], 4) == 1


# tables of every slot form, with zero and negative weights:
# {w: (slots' type, array item size)}
RANGE_TABLES = {
    (3, 0, -2, 5, 0, -3): (bytes, None),
    (7, -3, 0, 11, -1, 4, 0, 2, 9): (array, 2),
    (0, 0) + wide_weights(18, 3000, 1): (array, 4),
    (0,) + wide_weights(38, 5000, 2) + (0,): (array, 8),
    (1,) * 30 + (0,) * 3 + (-1,) * 30 + (5, -7, 2, 0): (list, None),
}


@pytest.mark.parametrize("w", RANGE_TABLES)
def test_table_range_size_is_its_nonzero_slots(w):
    # the kernel counts |R| from its support mask; the slots must agree
    p = profile_dp(w)
    kind, itemsize = RANGE_TABLES[w]
    assert type(p._slots) is kind and getattr(p._slots, "itemsize", None) == itemsize
    nonzero = sum(map(bool, p._slots))
    assert p.range_size == p._range == nonzero == concentration(p).range_size
    for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert copied == p and copied.range_size == nonzero


def test_fiber_examples():
    assert sorted(fiber((1, 1, 1), 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(fiber((1, 1, 1), 5)) == 0  # empty fibers are legal CubeSets
    assert sorted(fiber((0, 0), 0)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(TooLarge), work_limit(naive_cap=8):
        fiber((1,) * 9, 3)


def test_unique_preimages_examples():
    assert sorted(unique_preimages((1, 1, 1))) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    ]
    assert sorted(unique_preimages((0, 0))) == [(0, 0)]
    assert sorted(unique_preimages((1, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # (0,1,0) and (1,0,1) share the sum 4; the lex-smaller one is chosen
    assert (0, 1, 0) in unique_preimages((3, 4, 1))


@given(weights_st)
@settings(max_examples=40, deadline=None)
def test_unique_preimages_lex_minimal(w):
    chosen = {
        sum(a * b for a, b in zip(w, v)): v for v in unique_preimages(w)
    }
    expected = brute_profile(w)
    assert len(chosen) == len(unique_preimages(w)) == len(expected)
    assert set(chosen) == set(expected)
    for v in fiber(w, next(iter(chosen))):
        assert chosen[next(iter(chosen))] <= v


@given(weights_st)
@settings(max_examples=30, deadline=None)
def test_fiber_partitions_cube(w):
    p = profile_dp(w)
    total = 0
    for s, c in p.items():
        fib = fiber(w, s)
        assert len(fib) == c
        total += len(fib)
    assert total == 2 ** len(w)


@given(
    st.lists(st.integers(min_value=-12, max_value=12), min_size=1, max_size=10).map(tuple),
    st.integers(min_value=-40, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_mask_builders_match_tuple_oracles(w, tau):
    for got, want in ((fiber(w, tau), tuple_fiber(w, tau)),
                      (unique_preimages(w), tuple_unique_preimages(w))):
        assert got.n == len(w) and set(got) == want and len(got) == len(want)
        assert list(got.masks) == sorted(set(got.masks))  # strictly ascending
        assert list(got) == sorted(want)  # mask order is lexicographic order


def test_cube_set_round_trip():
    for n in range(4):  # every subset of {0,1}^n, the empty one included
        cube = list(itertools.product((0, 1), repeat=n))
        for picks in itertools.product((False, True), repeat=len(cube)):
            chosen = [v for v, keep in zip(cube, picks) if keep]
            s = CubeSet.from_vectors(n, reversed(chosen))
            assert list(s) == chosen and s.vectors == tuple(chosen)
            assert len(s) == len(chosen)
            assert all((v in s) == keep for v, keep in zip(cube, picks))
            assert list(s.masks) == sorted(set(s.masks))
    assert (0, 2) not in CubeSet.from_vectors(2, [(0, 0)])
    assert (0,) not in CubeSet.from_vectors(2, [(0, 0)])


def test_cube_set_builders_priced():
    # the 2^n sums are charged before they are built: n = 21 fits, n = 22 does not
    for build in (lambda w: fiber(w, 0), unique_preimages):
        with pytest.raises(TooLarge, match="cube-set subset-sum work"):
            build(tuple(2**i for i in range(22)))
    assert subsetsum._SUM_COST << 21 <= WORK_LIMIT < subsetsum._SUM_COST << 22


def test_unique_preimages_peak_memory():
    # on 2^0..2^17 the tuple-built set peaked at 87 MiB and the masks peak at
    # 32 MiB (tracemalloc, CPython 3.11); the bound leaves 50% over the masks
    w = tuple(2**i for i in range(18))
    tracemalloc.start()
    try:
        assert len(unique_preimages(w)) == 2**18
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, peak
