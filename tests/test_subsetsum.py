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
    FORMS,
    build,
    grouped_profile,
    profile_cases,
    rho_tau_range,
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
    # beyond every enumerator cap, auto has only the table
    assert profile((1,) * 70) == profile_dp((1,) * 70)


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


# The profile-form matrix: each reader test below runs on drawn (form, w)
# cases (see conftest.FORMS) and on every form of these vectors.  Readers
# scan a profile's lower half, and these sit at its edges: odd and even table
# sizes, zero middle slots and mirrored best windows that tie; (3, 3, 1),
# whose first best width-2 window starts at an empty slot, in bytes and in an
# 'H' array; zero and all-one weights at each slot width's edges, where only
# the count 2^n of zero weights needs the wider slot; an 'H' table whose
# largest count, 512, first matches across two items in a byte search;
# tables of every slot form with zero and negative weights; and, for the
# enumerators, all-distinct sums (1, 2, 4, 8) and (1, 2, 4, 8, 15), whose one
# equal pair comes with its last weight.
EDGE_VECTORS = [
    (0, 0, 0), (1, 1, 1), (1, 1, 1, 1), (1, 2, 4, 8), (1, 2, 4, 8, 15), (1, 10, 100),
    (1, 1, -2), (-1, 1), (5,),
    (0, -3, 0, 5), (-2, 0, 0, 7, -2), (0, 0, 0, 0, -1), (3, -1, 4, 1, -5, 9),
    (2,) * 5 + (4,), (2,) * 7 + (4,), (1,) * 6, (1,) * 7, (1,) * 8, (1,) * 9,
    (3, 3, 1), (3, 3, 1) + (0,) * 5, (-4, 9, 2), (2, 2, 0, -2, 0, 2), (5, -5, 5, -5, 1),
    (1,) * 12, (4, -3, 4, -3, 2, 0, 0, 1, -1, 4, 3, -4),
    *((x,) * n for n in (7, 8, 15, 16, 31, 32, 63, 64, 70) for x in (0, 1)),
    *((1,) * (64 - b) + (-1,) * b for b in (1, 32, 63)),
    (1, 3, 3, 7, 7, 1, 4, 3, 7, 6, 0, 3, 3),
    (3, 0, -2, 5, 0, -3), (7, -3, 0, 11, -1, 4, 0, 2, 9), (0, 0) + wide_weights(18, 3000, 1),
    (0,) + wide_weights(38, 5000, 2) + (0,), (1,) * 30 + (0,) * 3 + (-1,) * 30 + (5, -7, 2, 0),
]
# Tables past _LEVY_STARTS slots, whose window masses take several packed
# steps, at each array slot width
MANY_STEPS = [
    ("H", wide_weights(12, 3 * subsetsum._LEVY_STARTS, 5)),
    ("H", tuple(map(abs, wide_weights(11, 5 * subsetsum._LEVY_STARTS // 2, 6)))),
    ("I", wide_weights(17, 3 * subsetsum._LEVY_STARTS, 8)),
    ("Q", (1500,) * 16 + (-1499,) * 16 + (3,)),
]


def every_form(test):
    """The reader test run on drawn cases, on every form of EDGE_VECTORS, and
    on MANY_STEPS."""
    edges = [(form, w) for w in EDGE_VECTORS for form in FORMS if len(w) in FORMS[form][0]]
    for case in edges + MANY_STEPS:
        test = example(case)(test)
    return settings(max_examples=60, deadline=None)(given(profile_cases())(test))


def expected(w) -> dict:
    """w's {sum: count} from the oracle, or, past it, as its table reads, so
    that every form must answer alike."""
    return grouped_profile(w) or profile_dp(w).as_dict()


@every_form
def test_concentration_matches_oracle(case):
    form, w = case
    want, rep = expected(w), concentration(build(form, w))
    rho, tau, range_size = rho_tau_range(want, len(w))
    assert (rep.rho, rep.tau, rep.range_size) == (rho, tau, range_size)
    exponents = (math.log(1 / rho) / len(w), math.log(range_size) / len(w))
    assert (rep.epsilon, rep.delta) == pytest.approx(exponents)
    assert rep.delta >= rep.epsilon - 1e-12


@every_form
def test_range_size_is_its_nonzero_slots(case):
    # a table's |R| is its kernel's count from the support mask
    p = build(*case)
    slots = p.counts if p._slots is None else p._slots
    assert p.range_size == len(expected(case[1])) == sum(map(bool, slots))


# tables of every slot form, each pinned to the slot type its counts need
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


@every_form
def test_profiles_agree_with_oracle(case):
    p, want = build(*case), expected(case[1])
    sums = tuple(sorted(want))
    assert (p.sums, p.counts) == (sums, tuple(map(want.get, sums)))
    assert list(p.items()) == sorted(want.items()) and p.as_dict() == want


@every_form
def test_profile_forms_compare_alike(case):
    form, w = case
    p, enumerated, table = build(form, w), SumProfile.from_counts(len(w), expected(w)), profile_dp(w)
    assert p == enumerated == table and hash(p) == hash(enumerated) == hash(table)
    assert len({p, enumerated, table}) == 1
    assert p != profile_dp(w[:-1] + (w[-1] + 1,)) and p != profile_dp(w + (0,))


@every_form
def test_levy_matches_window_oracle(case):
    # width 0 is concentration's answer; a window of width at least the span
    # answers as one of the span; profiles of at most 301 sums, every drawn
    # one among them, go to the window oracle, and larger ones, the tables of
    # many packed steps among them, to the slide over the enumerated form
    form, w = case
    p, want = build(form, w), expected(w)
    rho, tau, _ = rho_tau_range(want, len(w))
    span, starts = max(want) - min(want), subsetsum._LEVY_STARTS
    enumerated = SumProfile.from_counts(len(w), want)

    def reference(width):
        if width == 0:
            return tau, rho
        if len(want) > 301:
            return levy(enumerated, Fraction(width, 2))
        mid, best = window_oracle(want, width / 2)  # exact: 2r is an int
        return mid, Fraction(best, 2 ** len(w))

    widths = (0, 1, 2, 3, 7, 10, 1000, starts - 1, starts, starts + 1, 2 * starts,
              span // 2, span, span + 5)
    answers = {}
    # and two radii in thirds, whose 2r has a fractional part for the floor to drop
    for r in (*(Fraction(width, 2) for width in widths), Fraction(1, 3), Fraction(7, 3)):
        width = min(math.floor(2 * r), span)
        if width not in answers:
            answers[width] = reference(width)
        assert levy(p, r) == answers[width], (form, w, r)
    with pytest.raises(BadParams):
        levy(p, -1)


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


def test_concentration_copies_its_lower_half_once():
    # 3 * 10^6 + 1 four-byte slots: concentration copies the lower half
    # (5.72 MiB) to take its max and searches that copy in place for the
    # witness; a second, bytes copy for the search would double the peak
    p = profile((10**5,) * 30)
    tracemalloc.start()
    try:
        rep = concentration(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.tau, rep.rho) == (15 * 10**5, Fraction(math.comb(30, 15), 2**30))
    assert peak <= 6 * 2**20, peak


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


def test_fiber_examples():
    assert sorted(fiber((1, 1, 1), 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(fiber((1, 1, 1), 5)) == 0  # empty fibers are legal CubeSets
    assert fiber((1, 2), 3.0).masks == fiber((1, 2), 3).masks == (3,)  # tau any number
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
