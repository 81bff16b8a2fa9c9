"""Shared test oracles: small, independent reimplementations used to check
the library answers. Everything here enumerates directly over itertools
products, deliberately sharing no code with the package; the Monte Carlo
oracle takes its Bin(k) draws as an argument."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

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


def brute_rho_tau_range(w):
    p = brute_profile(w)
    maxc = max(p.values())
    tau = min(s for s, c in p.items() if c == maxc)
    return Fraction(maxc, 2 ** len(w)), tau, len(p)


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


@pytest.fixture
def kernel_calls(monkeypatch):
    """The list of profile kernels ("naive", "dp", "mitm") that
    ``subsetsum.profile`` runs while the test runs, in call order."""
    calls = []
    for name in ("naive", "dp", "mitm"):
        kernel = getattr(subsetsum, f"profile_{name}")

        def logged(w, _kernel=kernel, _name=name, **kwargs):
            calls.append(_name)
            return _kernel(w, **kwargs)

        monkeypatch.setattr(subsetsum, f"profile_{name}", logged)
    return calls
