"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
pins the advertised runtime where one is advertised.  Nothing here is
statistical except criterion 9, whose seeds are frozen.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from anticonc.frontier import (
    SweepConfig,
    audit,
    delta_over_sqrt_eps,
    sweep_points,
)
from anticonc.lemmas import (
    Verdict,
    block_construction,
    block_theory,
    check_initial_bound,
    second_moment_identity,
    sup_ratio_exact,
    sup_ratio_mc,
    tail_check,
)
from anticonc.subsetsum import (
    CubeSet,
    concentration,
    fiber,
    profile,
    profile_dp,
    profile_mitm,
    profile_naive,
    unique_preimages,
)
from anticonc.sumsets import check_injectivity, density_ratio_max
from conftest import canonical_vectors, report

CMD = [sys.executable, "-m", "anticonc"]

_sweep8_cache = {}


def sweep8(workers=8):
    """The exhaustive n <= 8, weights {0..12} sweep, one audit per n."""
    if workers not in _sweep8_cache:
        per_n = {}
        for n in range(1, 9):
            pts = sweep_points(SweepConfig(n=n, max_weight=12, workers=workers))
            per_n[n] = (pts, audit(pts))
        _sweep8_cache[workers] = per_n
    return _sweep8_cache[workers]


def summary_json(per_n) -> bytes:
    """Canonical serialization of the sweep's extreme-ratio summary."""
    rec = {
        str(n): {
            "points": rep.points,
            "max_delta_over_eps": f"{rep.max_delta_over_eps:.12g}",
            "argmax_delta_over_eps": list(rep.argmax_delta_over_eps),
            "max_delta_over_sqrt_eps": f"{rep.max_delta_over_sqrt_eps:.12g}",
            "argmax_delta_over_sqrt_eps": list(rep.argmax_delta_over_sqrt_eps),
            "exceeding_2eps": sorted(list(w) for w in rep.exceeding_2eps),
        }
        for n, (_, rep) in per_n.items()
    }
    return json.dumps(rec, sort_keys=True).encode("ascii")


def test_criterion_01_profile_oracle_equivalence(kernel_calls):
    rng = random.Random(20260819)
    t0 = time.monotonic()
    checked = 0
    auto_ns = {}  # kernel auto ran -> the n it ran at
    for _ in range(1000):
        n = rng.randint(1, 16)
        w = tuple(rng.randint(-50, 50) for _ in range(n))
        a = profile_naive(w)
        assert a == profile_dp(w) == profile_mitm(w), w
        kernel_calls.clear()
        assert profile(w) == a, w
        auto_ns.setdefault(kernel_calls[-1], set()).add(n)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 1000 and elapsed < 60
    auto = ",".join(f"{k}@n{min(ns)}-{max(ns)}" for k, ns in sorted(auto_ns.items()))
    assert report(ok, "criterion 1: three profile algorithms agree on 1000 random vectors",
                  vectors=checked, auto=auto, elapsed=f"{elapsed:.1f}s", cap="60s")


def test_criterion_02_anchor_cases():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 21):
        rep = concentration(profile((0,) * n))
        ok &= rep.rho == 1 and rep.range_size == 1
        rep = concentration(profile(tuple(2**i for i in range(n))))
        ok &= rep.rho == Fraction(1, 2**n) and rep.range_size == 2**n
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5
    assert report(ok, "criterion 2: all-zero and superincreasing anchors exact to n=20",
                  elapsed=f"{elapsed:.2f}s", cap="5s")


def test_criterion_03_universal_lower_bound():
    t0 = time.monotonic()
    per_n = sweep8(workers=8)  # audit() raises on any |R|*rho < 1
    points = sum(rep.points for _, rep in per_n.values())
    elapsed = time.monotonic() - t0
    ok = points == 195749 and elapsed < 600
    assert report(ok, "criterion 3: delta >= eps exact for the full n<=8, weights<=12 sweep",
                  points=points, violations=0, elapsed=f"{elapsed:.1f}s", cap="600s")


def test_criterion_04_injectivity():
    t0 = time.monotonic()
    checks = violations = 0
    cases = []
    for n in range(1, 7):
        cases.extend(canonical_vectors(n, 6))
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 8)
        cases.append(tuple(rng.randint(-50, 50) for _ in range(n)))
    for w in cases:
        rep = concentration(profile(w))
        A = unique_preimages(w)
        B = fiber(w, rep.tau)
        for k in (1, 2, 3):
            res = check_injectivity(A, B, k)
            checks += 1
            violations += not res.holds
    elapsed = time.monotonic() - t0
    ok = violations == 0 and checks == (len(cases)) * 3 and elapsed < 300
    assert report(ok, "criterion 4: injectivity holds on the n<=6 sweep and 200 random instances",
                  checks=checks, violations=violations, elapsed=f"{elapsed:.1f}s", cap="300s")


def test_criterion_05_density_bound():
    t0 = time.monotonic()
    fibers = violations = 0
    for n in range(1, 7):
        shift = 1 << n
        for w in canonical_vectors(n, 6):
            for s, _ in profile(w).items():
                B = fiber(w, s)
                fibers += 1
                base = Fraction(shift, len(B))
                for k in (1, 2, 3):
                    violations += not density_ratio_max(B, k) <= base**k
    elapsed = time.monotonic() - t0
    ok = violations == 0 and fibers == 18985
    assert report(ok, "criterion 5: density ratio within (2^n/|B|)^k on every n<=6 fiber, k<=3",
                  fibers=fibers, violations=violations, elapsed=f"{elapsed:.1f}s", cap="none")


def test_criterion_06_initial_moment_bound():
    t0 = time.monotonic()
    ok = True
    checked = []
    for k in (51, 64, 100, 128, 256):
        s_max = math.floor(k / (16 * math.pi))
        ok &= s_max >= 1
        for s in range(1, s_max + 1):
            rec = check_initial_bound(k, s)
            ok &= rec.in_hypothesis and rec.verdict is Verdict.HOLDS
            checked.append((k, s))
        ok &= not check_initial_bound(k, s_max + 1).in_hypothesis
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    assert report(ok, "criterion 6: moment bound holds for every admissible s at k in {51,64,100,128,256}",
                  pairs=len(checked), elapsed=f"{elapsed:.1f}s", cap="60s")


def test_criterion_07_second_moment():
    t0 = time.monotonic()
    ok = all(
        second_moment_identity(k).verdict is Verdict.HOLDS for k in range(3, 257)
    )
    spot = second_moment_identity(3)
    ok &= spot.lhs == Fraction(37, 24) and spot.mid == Fraction(9, 8)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    assert report(ok, "criterion 7: second-moment chain exact for 3<=k<=256, spot 37/24 vs 9/8",
                  elapsed=f"{elapsed:.1f}s", cap="10s")


def test_criterion_08_tail_bound():
    t0 = time.monotonic()
    ok = all(tail_check(k) is Verdict.HOLDS for k in range(1, 257))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    assert report(ok, "criterion 8: binomial tail within 2*(4/5)^k for 1<=k<=256",
                  elapsed=f"{elapsed:.1f}s", cap="10s")


def test_criterion_09_sup_ratio():
    t0 = time.monotonic()
    ok = sup_ratio_exact(CubeSet.from_vectors(3, [(0, 0, 0)]), 3) == 1
    ok &= sup_ratio_exact(CubeSet.from_vectors(1, [(1,)]), 2) == Fraction(3, 4)
    ok &= sup_ratio_exact(CubeSet.from_vectors(1, [(0,), (1,)]), 2) == Fraction(5, 4)
    rng = random.Random(7)
    passes = 0
    for trial in range(20):
        n = rng.randint(1, 5)
        k = rng.randint(1, 6)
        size = rng.randint(1, min(8, 2**n))
        cube = [tuple((m >> i) & 1 for i in range(n)) for m in range(2**n)]
        A = CubeSet.from_vectors(n, rng.sample(cube, size))
        exact = float(sup_ratio_exact(A, k))
        est = sup_ratio_mc(A, k, 10**5, seed=trial)
        passes += abs(est.mean - exact) <= 3 * est.std_error
    elapsed = time.monotonic() - t0
    ok = ok and passes >= 18 and elapsed < 120
    assert report(ok, "criterion 9: sup-ratio hand values exact; MC within 3 sigma on >=18/20 seeds",
                  mc_passes=f"{passes}/20", elapsed=f"{elapsed:.1f}s", cap="120s")


def test_criterion_10_block_construction():
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for n, k in ((4, 2), (6, 2), (8, 2), (6, 3), (9, 3), (8, 4)):
        theory = block_theory(n, k)
        rep = concentration(profile(block_construction(n, k)))
        ok &= rep.rho == theory.rho and rep.range_size == theory.range_size
        measured = rep.delta / rep.epsilon
        predicted = math.log(k + 1) / (
            k * math.log(2) - math.log(math.comb(k, k // 2))
        )
        rel = abs(measured - predicted) / predicted
        worst = max(worst, rel)
        ok &= rel < 1e-12
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    assert report(ok, "criterion 10: block (rho,|R|) exact on six shapes; delta/eps to 12 digits",
                  worst_rel_err=f"{worst:.2e}", elapsed=f"{elapsed:.1f}s", cap="30s")


def test_criterion_11_sqrt_ratio_stable():
    t0 = time.monotonic()
    base = sweep8(workers=8)
    finite = all(
        math.isfinite(rep.max_delta_over_sqrt_eps) for _, rep in base.values()
    )
    blob = summary_json(base)
    rerun = {}
    for n in range(1, 9):
        pts = sweep_points(SweepConfig(n=n, max_weight=12, workers=8))
        rerun[n] = (pts, audit(pts))
    lone = {}
    for n in range(1, 9):
        pts = sweep_points(SweepConfig(n=n, max_weight=12, workers=1))
        lone[n] = (pts, audit(pts))
    stable = blob == summary_json(rerun) == summary_json(lone)
    overall = max(rep.max_delta_over_sqrt_eps for _, rep in base.values())
    elapsed = time.monotonic() - t0
    ok = finite and stable
    assert report(ok, "criterion 11: max delta/sqrt(eps) finite and byte-stable across runs and workers",
                  max_ratio=f"{overall:.12g}", digest=hashlib.sha256(blob).hexdigest()[:12],
                  elapsed=f"{elapsed:.1f}s", cap="none")


def _run(*args, cwd=None):
    return subprocess.run(
        CMD + [str(a) for a in args], capture_output=True, text=True, cwd=cwd
    )


VERIFY_CASES = (
    ("injectivity", "--weights", "1,2,2,3", "--k", "2"),
    ("density", "--weights", "1,1,2", "--k", "2"),
    ("partition", "--weights", "1,1,2", "--k", "2"),
    ("moment", "--k", "51", "--s", "1"),
    ("second-moment", "--k", "8"),
    ("tail", "--k", "64"),
    ("max-ratio", "--k", "9"),
    ("supratio", "--weights", "1,2,3", "--k", "3", "--samples", "2000", "--seed", "7"),
    ("supratio", "--weights", "1,2,3", "--k", "3", "--samples", "2000",
     "--seed", "7", "--enum-budget", "2"),
    ("theorem", "--weights", "1,2,4,8", "--c", "20"),
)


def test_criterion_12_determinism(tmp_path):
    t0 = time.monotonic()
    ok = True
    f1, f4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    r1 = _run("frontier", "--n", "4", "--max-weight", "8", "--workers", "1",
              "--output", f1)
    r4 = _run("frontier", "--n", "4", "--max-weight", "8", "--workers", "4",
              "--output", f4)
    ok &= r1.returncode == r4.returncode == 0
    ok &= f1.read_bytes() == f4.read_bytes()
    j1, j4 = json.loads(r1.stdout), json.loads(r4.stdout)
    for j, path in ((j1, f1), (j4, f4)):
        j["parameters"]["workers"] = None
        j["outputs"]["csv_path"] = None
    ok &= j1 == j4
    for case in VERIFY_CASES:
        a = _run("verify", *case)
        b = _run("verify", *case)
        ok &= a.returncode == b.returncode == 0 and a.stdout == b.stdout
        ok &= a.stdout.strip() != ""
    elapsed = time.monotonic() - t0
    assert report(ok, "criterion 12: frontier identical across workers; verify re-runs byte-identical",
                  verify_cases=len(VERIFY_CASES), elapsed=f"{elapsed:.1f}s", cap="none")
