"""Shared test oracles: small, independent reimplementations used to check
the library answers. Everything here enumerates directly over itertools
products, deliberately sharing no code with the package; the Monte Carlo
oracle takes its Bin(k) draws as an argument.  Besides the oracles: the
profile-form matrix (every form a ``SumProfile`` takes, and one strategy
drawing a form and a vector), and a log of the kernels ``profile`` runs."""

import copy
import itertools
import math
import operator
import pickle
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from anticonc import subsetsum


def brute_profile(w):
    """Subset-sum profile by plain enumeration of all 0/1 vectors."""
    counts = Counter()
    for xi in itertools.product((0, 1), repeat=len(w)):
        counts[sum(a * b for a, b in zip(w, xi))] += 1
    return dict(counts)


def canonicalize(w):
    """Magnitudes sorted ascending with the gcd of the nonzero entries divided
    out; (rho, |R|) is invariant under all three reductions."""
    mags = sorted(abs(x) for x in w)
    g = math.gcd(*(x for x in mags if x))
    return tuple(x // g for x in mags) if g > 1 else tuple(mags)


def canonical_vectors(n, max_weight):
    """All canonical vectors in {0,...,max_weight}^n in lexicographic order:
    nondecreasing, and gcd-reduced unless identically zero."""
    for v in itertools.combinations_with_replacement(range(max_weight + 1), n):
        nonzero = [x for x in v if x]
        if not nonzero or math.gcd(*nonzero) == 1:
            yield v


def tuple_fiber(w, tau):
    """The fiber at tau as a set of 0/1 tuples, by plain enumeration."""
    return {
        v for v in itertools.product((0, 1), repeat=len(w))
        if sum(a * b for a, b in zip(w, v)) == tau
    }


def tuple_unique_preimages(w):
    """The first preimage of each sum in lexicographic order (coordinate 1
    most significant), as a set of 0/1 tuples."""
    chosen = {}
    for v in itertools.product((0, 1), repeat=len(w)):
        chosen.setdefault(sum(a * b for a, b in zip(w, v)), v)
    return set(chosen.values())


def grouped_profile(w):
    """w's profile as {sum: count}, by enumerating how many copies of each
    distinct nonzero entry v a subset takes: k of m copies add k*v in C(m, k)
    ways, and each zero entry doubles every count.  None past 8192 choices,
    so n = 70 is in reach when at most 13 entries are nonzero or most repeat."""
    groups = Counter(x for x in w if x)
    zeros = len(w) - sum(groups.values())
    if math.prod(m + 1 for m in groups.values()) > 8192:
        return None
    counts = Counter()
    for ks in itertools.product(*(range(m + 1) for m in groups.values())):
        ways = math.prod(map(math.comb, groups.values(), ks))
        counts[sum(map(operator.mul, ks, groups))] += ways << zeros
    return dict(counts)


def rho_tau_range(counts, n):
    """rho, the least sum of the largest count, and |R| of a {sum: count}."""
    maxc = max(counts.values())
    tau = min(s for s, c in counts.items() if c == maxc)
    return Fraction(maxc, 2**n), tau, len(counts)


def window_oracle(counts, r):
    """The least midpoint of the extreme sums of a best window [lo, lo + 2r],
    and that window's mass, by trying every sum of a {sum: count} dict as lo
    and summing the counts inside."""
    found = []
    for lo in counts:
        top = lo + 2 * r
        inside = [s for s in counts if lo <= s <= top]
        mass = sum(counts[s] for s in inside)
        found.append((-mass, Fraction(lo + max(inside), 2)))
    neg_mass, tau = min(found)
    return tau, -neg_mass


def audit_oracle(points, C):
    """The audit decided one point at a time: the first point with
    |R|*rho < 1, or else the fields of its report as a dict."""
    best_ratio = best_sqrt = -1.0
    arg_ratio = arg_sqrt = None
    exceeding = []
    for p in points:
        num, den = p.rho.numerator, p.rho.denominator
        if p.range_size * num < den:
            return p
        r = 1.0 if num == den else p.delta / p.epsilon
        if r > best_ratio:
            best_ratio, arg_ratio = r, p.weights
        rs = p.delta / math.sqrt(max(p.epsilon, 1.0 / len(p.weights) ** 2))
        if rs > best_sqrt:
            best_sqrt, arg_sqrt = rs, p.weights
        if p.range_size * num * num > den * den:
            exceeding.append(p.weights)
    return dict(
        points=len(points),
        max_delta_over_eps=best_ratio,
        argmax_delta_over_eps=arg_ratio,
        max_delta_over_sqrt_eps=best_sqrt,
        argmax_delta_over_sqrt_eps=arg_sqrt,
        exceeding_2eps=tuple(exceeding),
        within_c=best_sqrt <= C,
    )


def pascal_binom(k, x):
    """Binomial coefficient from the additive recurrence only."""
    if x < 0 or x > k:
        return 0
    row = [1]
    for _ in range(k):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[x]


def brute_ksum_counts(B, k):
    """Multiplicities of k-fold sums by walking all |B|^k tuples."""
    counts = Counter()
    for tup in itertools.product(sorted(B), repeat=k):
        counts[tuple(map(sum, zip(*tup)))] += 1
    return dict(counts)


def brute_first_collision(A, B, k):
    """None when (a, c) -> a + c is injective on A x k*B, else the
    lexicographically least a in A whose sums meet a smaller a's sums:
    A is walked in sorted order against the sums of all earlier a."""
    ksums = brute_ksum_counts(B, k)
    reached = set()
    for a in sorted(A):
        sums = {tuple(x + y for x, y in zip(a, c)) for c in ksums}
        if sums & reached:
            return a
        reached |= sums
    return None


def brute_ratio_moment(k, s):
    """E[(x/(k+1-x))^s] by enumerating all 2^k coin strings."""
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=k):
        x = sum(bits)
        total += Fraction(x, k + 1 - x) ** s
    return total / 2**k


def brute_tail(k):
    """P[|x - k/2| >= k/3] by enumerating all 2^k coin strings, each
    distinct head count x tested once."""
    heads = Counter(map(sum, itertools.product((0, 1), repeat=k)))
    hits = sum(c for x, c in heads.items() if abs(Fraction(2 * x - k, 2)) >= Fraction(k, 3))
    return Fraction(hits, 2**k)


def fraction_tail_holds(k):
    """P[|x - k/2| >= k/3] <= 2*(4/5)^k for x ~ Bin(k), summed in Fractions."""
    tail = Fraction(0)
    for x in range(k + 1):
        if 3 * abs(2 * x - k) >= 2 * k:
            tail += Fraction(math.comb(k, x), 2**k)
    return tail <= 2 * Fraction(4, 5) ** k


def fraction_max_ratio_holds(k):
    """max over l of max{C(k,l-1), C(k,l)} / C(k,l) <= k, in Fractions."""
    def c(l):
        return math.comb(k, l) if l >= 0 else 0

    best = max(Fraction(max(c(l - 1), c(l)), c(l)) for l in range(k + 1))
    return best <= k


def brute_sup_ratio(vectors, k, n):
    """Sup-ratio expectation from an explicit probability table."""
    total = Fraction(0)
    for x in itertools.product(range(k + 1), repeat=n):
        weight = Fraction(1)
        for xi in x:
            weight *= Fraction(math.comb(k, xi), 2**k)
        sup = Fraction(0)
        for a in vectors:
            r = Fraction(1)
            for xi, ai in zip(x, a):
                if ai:
                    r *= Fraction(xi, k + 1 - xi)
            sup = max(sup, r)
        total += weight * sup
    return total


def ratio_table(k):
    """L = lcm(1..k+1), the ints x*L/(k+1-x) for x = 0..k, and C(k, x)."""
    L = math.lcm(*range(1, k + 2))
    return L, [x * L // (k + 1 - x) for x in range(k + 1)], [math.comb(k, x) for x in range(k + 1)]


def brute_sup_ratio_exact(vectors, n, k, table):
    """The sup-ratio expectation and the first point of {0..k}^n, in
    itertools.product order, whose integrand exceeds k^n (None if none),
    from an integer ratio table (L, ratios, C(k, .)) one point at a time."""
    L, ratios, weights = table
    den = L**n
    total, first = 0, None
    for x in itertools.product(range(k + 1), repeat=n):
        s = max((L ** (n - sum(a)) * math.prod(ratios[xi] for xi, ai in zip(x, a) if ai)
                 for a in vectors), default=0)
        if first is None and s > k**n * den:
            first = x
        total += math.prod(weights[xi] for xi in x) * s
    return Fraction(total, den << k * n), first


def brute_sup_ratio_mc(vectors, n, k, samples, seed, draw):
    """(mean, std_error) of the sup-ratio Monte Carlo estimate, one sample
    at a time in Fractions, from the draws draw(seed, sample, coordinate, k)."""
    s1 = s2 = Fraction(0)
    for t in range(samples):
        x = [draw(seed, t, i, k) for i in range(n)]
        v = max((math.prod(Fraction(xi, k + 1 - xi) for xi, ai in zip(x, a) if ai)
                 for a in vectors), default=Fraction(0))
        s1 += v
        s2 += v * v
    variance = (samples * s2 - s1 * s1) / (samples**2 * max(samples - 1, 1))
    return float(s1 / samples), math.sqrt(variance)


def report(ok, label, **fields):
    """One human-readable pass/fail line per checked criterion."""
    tail = " ".join(f"{k}={v}" for k, v in fields.items())
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  [{tail}]" if tail else ""))
    return ok


def _rebuilt(copier):
    """The table's profile of w after ``copier``, which rebuilds it enumerated."""
    return lambda w: copier(subsetsum.profile_dp(w))


# Every form of a profile: {form: (the lengths n it is drawn at, its builder,
# its slots' type, their item size)}.  The table keeps its slots in bytes
# below n = 8, in an 'H', 'I' or 'Q' array up to n = 63, then in a list; an
# enumerated profile, from an enumerator or a table pickled or copied, keeps
# none.
FORMS = {
    "bytes": (range(1, 8), subsetsum.profile_dp, bytes, None),
    "H": (range(8, 16), subsetsum.profile_dp, array, 2),
    "I": (range(16, 32), subsetsum.profile_dp, array, 4),
    "Q": (range(32, 64), subsetsum.profile_dp, array, 8),
    "list": (range(64, 71), subsetsum.profile_dp, list, None),
    "naive": (range(1, 14), subsetsum.profile_naive, type(None), None),
    "mitm": (range(1, 17), subsetsum.profile_mitm, type(None), None),
    "pickle": (range(1, 71), _rebuilt(lambda p: pickle.loads(pickle.dumps(p))), type(None), None),
    "copy": (range(1, 71), _rebuilt(copy.copy), type(None), None),
    "deepcopy": (range(1, 71), _rebuilt(copy.deepcopy), type(None), None),
}


def build(form, w):
    """w's profile in the named form, once its slots are checked to be that form's."""
    _, make, kind, itemsize = FORMS[form]
    p = make(w)
    assert type(p._slots) is kind and getattr(p._slots, "itemsize", None) == itemsize, form
    return p


@st.composite
def profile_cases(draw):
    """A (form, w) case: a form, and a length it is drawn at, filled by at most
    10 entries, small ones often so that sums collide, then zeros, so that
    ``grouped_profile`` is w's oracle."""
    form = draw(st.sampled_from(list(FORMS)))
    n = draw(st.sampled_from(FORMS[form][0]))
    entries = st.integers(min_value=-4, max_value=4) | st.integers(min_value=-30, max_value=30)
    core = draw(st.lists(entries, max_size=min(n, 10)))
    return form, tuple(core) + (0,) * (n - len(core))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The list of profile kernels ("naive", "dp", "mitm") that
    ``subsetsum.profile`` runs while the test runs, in call order."""
    calls = []
    for name in ("naive", "dp", "mitm"):
        kernel = getattr(subsetsum, f"profile_{name}")

        def logged(w, _kernel=kernel, _name=name):
            calls.append(_name)
            return _kernel(w)

        monkeypatch.setattr(subsetsum, f"profile_{name}", logged)
    return calls
