"""The answer-identity corpus: fixed library calls and CLI runs, each reduced
to a short digest of its answer, pinned in ``answers.json``.

``test_answers.py`` recomputes every digest and names the inputs whose
answers moved.  A change that moves answers on purpose re-pins the file by
running this script from the repository root,

    PYTHONPATH=src python tests/answer_corpus.py

and names each moved input in CHANGES.md.  An answer is a value built only
from ints, Fractions, floats, strings and tuples, so its repr is the same in
every process; a typed library error is answered by its type and message.
Fields that only echo an input are left out of the answers.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from anticonc import cli, lemmas
from anticonc.errors import BadParams, InvariantViolated, TooLarge, Undecidable, work_limit
from anticonc.frontier import SweepConfig, audit, pareto_subset, sweep_points
from anticonc.lemmas import (
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
from anticonc.numerics import PI, Exp, Mul, Rat, binomial_row, cmp_bound, interval
from anticonc.subsetsum import (
    CubeSet,
    concentration,
    fiber,
    levy,
    profile,
    unique_preimages,
)
from anticonc.sumsets import (
    check_injectivity,
    density_ratio_max,
    iterated_sumset,
    partition_total,
)

PINS = Path(__file__).with_name("answers.json")
LIBRARY_ERRORS = (BadParams, InvariantViolated, TooLarge, Undecidable)


def digest(answer) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()[:12]


def _outcome(fn, *args, **kwargs):
    """fn's answer, or the type and message of the library error it raised."""
    try:
        return fn(*args, **kwargs)
    except LIBRARY_ERRORS as exc:
        return type(exc).__name__, str(exc)


def _cs(*vectors):
    return CubeSet.from_vectors(len(vectors[0]), vectors)


# -- library -------------------------------------------------------------

def _vectors():
    rng = random.Random(16)
    out = [tuple(rng.randint(-40, 40) for _ in range(rng.randint(1, 12)))
           for _ in range(24)]
    return out + [(0,), (0, 0, 0), (1,) * 14, tuple(2**i for i in range(10))]


def _profile_answer(w, algorithm, radii=(0, Fraction(1, 2), Fraction(5, 2), 40)):
    p = profile(w, algorithm)
    rep = concentration(p)
    return (p.n, p.sums, p.counts, rep.rho, rep.tau, rep.range_size,
            rep.epsilon.hex(), rep.delta.hex(), [levy(p, r) for r in radii])


def _profiles():
    cases = {}
    for i, w in enumerate(_vectors()):
        for algorithm in ("naive", "dp", "mitm", "auto"):
            cases[f"profile/{algorithm}/v{i:02d}"] = (_profile_answer, w, algorithm)
    # a table of 2e5 slots read in many levy chunks, a table too wide for an
    # array, meet in the middle on collisions, and refusals
    wide = (31337, -2, 70001, 5, 12345, -99999, 3, 4)
    for algorithm in ("dp", "auto"):
        cases[f"profile/{algorithm}/wide"] = (_profile_answer, wide, algorithm)
        cases[f"profile/{algorithm}/ones70"] = (_profile_answer, (1,) * 70, algorithm)
    cases["profile/mitm/ramp30"] = (_profile_answer, tuple(range(1, 31)), "mitm")
    # enumerated profiles: 16 weights at span about 1e9, whose 2^16 sums are
    # nearly all distinct, and 16 weights whose sums collide heavily; levy
    # windows at the radii past 0 cover many sums.  auto enumerates wide16 as
    # naive does, and reads heavy16 from the table
    rng = random.Random(19)
    wide16 = tuple(rng.randint(-10**8, 10**8) for _ in range(16))
    heavy = (1, 1, 1, 2, 2, 2, 3, 3, 3, 5, 5, -4, -4, 0, 0, 7)
    for name, w, radii, algorithms in (
        ("wide16", wide16, (0, 10**6, Fraction(6 * 10**8 + 1, 3)), ("naive",)),
        ("heavy16", heavy, (0, Fraction(9, 2), 11, Fraction(40, 3)), ("naive", "mitm", "auto")),
    ):
        for algorithm in algorithms:
            cases[f"profile/{algorithm}/{name}"] = (_profile_answer, w, algorithm, radii)
    cases["profile/auto/refused"] = (_profile_answer, tuple(2**i for i in range(60)),
                                     "auto")
    return cases


def _cube_answer(A):
    return A.n, A.masks


def _cube_sets():
    cases = {}
    for i, w in enumerate([(1, 1, 2), (3, -1, 2, 2, 5), (1, 2, 3, 4, 5, 6), (0, 0, 1),
                           (7,), (2, 2, 2, 2, 3, 3)]):
        cases[f"unique_preimages/v{i}"] = (lambda w=w: _cube_answer(unique_preimages(w)),)
        for tau in (None, 0, 3):
            cases[f"fiber/v{i}/tau{tau}"] = (lambda w=w, tau=tau: _cube_answer(fiber(w, tau)),)
    return cases


SUMSET_INPUTS = [((1, 1, 2), 1), ((1, 1, 2), 2), ((1, 2, 2, 3), 2), ((1, 1, 2, 3, 5), 3),
                 ((2, 3, 5, 7), 2), ((1, 1, 1), 3), ((1, 2, 3, 4), 2), ((1, 1, 2, 2), 3)]


def _injectivity(w, k):
    res = check_injectivity(unique_preimages(w), fiber(w, None), k)
    return res.holds, res.witness


def _sumsets():
    cases = {}
    for i, (w, k) in enumerate(SUMSET_INPUTS):
        B = fiber(w, None)
        cases[f"iterated_sumset/v{i}"] = (lambda B=B, k=k: list(iterated_sumset(B, k).items()),)
        cases[f"injectivity/v{i}"] = (_injectivity, w, k)
        cases[f"density/v{i}"] = (density_ratio_max, B, k)
        cases[f"partition/v{i}"] = (partition_total, unique_preimages(w), B, k)
    cases["injectivity/refused"] = (check_injectivity, unique_preimages((1, 2, 2, 3, 4, 5)),
                                    fiber((1, 2, 2, 3, 4, 5), None), 3)
    # unique preimages against a fiber never collide, so random cube-set
    # pairs supply the witnesses
    rng = random.Random(7)
    for i in range(12):
        n, k = 3 + i % 2, 1 + i % 3
        cube = list(itertools.product((0, 1), repeat=n))
        A = CubeSet.from_vectors(n, rng.sample(cube, 4))
        B = CubeSet.from_vectors(n, rng.sample(cube, 3))
        cases[f"injectivity/pair{i}"] = (
            lambda A=A, B=B, k=k: (lambda r: (r.holds, r.witness))(check_injectivity(A, B, k)),)
    return cases


def _exprs():
    return [
        PI, Exp(Rat(Fraction(1))), Exp(Rat(Fraction(-7, 3))), Exp(Mul(Rat(Fraction(10, 51)), PI)),
        Mul(PI, Rat(Fraction(-1, 3))), Exp(Rat(Fraction(0))) + Rat(Fraction(2, 5)),
        Exp(Mul(Rat(Fraction(40, 120)), PI)) + Rat(2 * 120 * Fraction(4, 5) ** 120),
    ]


def _numerics():
    cases = {}
    for i, expr in enumerate(_exprs()):
        for bits in (8, 64, 200):
            cases[f"interval/e{i}/{bits}"] = (interval, expr, bits)
        for j, q in enumerate((Fraction(3), Fraction(355, 113), Fraction(22, 7),
                               Fraction(-1, 1), Fraction(27183, 10000))):
            cases[f"cmp_bound/e{i}/q{j}"] = (
                lambda q=q, expr=expr: cmp_bound(q, expr).name,)
            cases[f"cmp_bound_bits/e{i}/q{j}"] = (_bits_reached, q, expr)
        # the midpoint of a finer enclosure is separated only past its precision
        for bits in (192, 700, 1500, 3000, 5000):
            q = sum(interval(expr, bits)) / 2
            cases[f"cmp_bound_bits/e{i}/mid{bits}"] = (_bits_reached, q, expr)
    cases["cmp_bound/equal"] = (lambda: cmp_bound(1, Exp(Rat(Fraction(0)))).name,)
    cases["cmp_bound/undecidable"] = (_bound_order, Fraction(314159265358979, 10**14), PI, 16)
    # equal to q but not dyadic, so no enclosure collapses onto it
    cases["cmp_bound/equal_not_dyadic"] = (
        lambda: cmp_bound(Fraction(4, 3), Exp(Rat(Fraction(0))) + Rat(Fraction(1, 3))).name,)
    for k, s, bits in ((51, 1, 4096), (50, 1, 4096), (75, 1, 4096), (120, 2, 4096),
                       (3, 1, 64), (50, 1, 4), (100, 2, 1), (1, 10000, 4096),
                       (51, 1, 2), (200, 3, 2)):
        cases[f"initial_bound/k{k}/s{s}/b{bits}"] = (
            lambda k=k, s=s, bits=bits: _moment_record(k, s, bits),)
    return cases


def _bound_order(q, expr, bits):
    """cmp_bound's ordering under the precision cap ``bits``."""
    with work_limit(precision_cap_bits=bits):
        return cmp_bound(q, expr).name


def _bits_reached(q, expr):
    """The smallest precision cap of 128, 256, ..., 4096 at which cmp_bound
    answers, or None."""
    for bits in (128 << i for i in range(6)):
        try:
            _bound_order(q, expr, bits)
        except Undecidable:
            continue
        return bits
    return None


def _moment_record(k, s, bits):
    with work_limit(precision_cap_bits=bits):
        rec = check_initial_bound(k, s)
    return rec.lhs, str(rec.rhs), rec.verdict.value, rec.in_hypothesis


def _binomial_checks():
    cases = {}
    for k in (0, 1, 2, 3, 5, 8, 13, 64, 100, 257):
        cases[f"binomial_row/k{k}"] = (binomial_row, k)
        cases[f"tail/k{k}"] = (lambda k=k: tail_check(k).value,)
        cases[f"max_ratio/k{k}"] = (lambda k=k: max_ratio_bound(k).value,)
        cases[f"second_moment/k{k}"] = (
            lambda k=k: (lambda r: (r.lhs, r.mid, r.verdict.value))(second_moment_identity(k)),)
        for s in (1, 2, 3):
            cases[f"ratio_moment/k{k}/s{s}"] = (ratio_moment, k, s)
    cases["binomial_row/refused"] = (binomial_row, 10**4)
    return cases


MC_SETS = [
    _cs((1, 0, 1, 1, 0), (0, 1, 1, 0, 1), (1, 1, 0, 0, 0), (0, 0, 0, 1, 1),
        (1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (1, 1, 1, 0, 0), (0, 0, 1, 0, 1)),
    _cs((1, 0, 1), (0, 1, 1)),
    _cs((0, 0, 0), (1, 1, 0), (0, 1, 1)),
    _cs((0, 1), (1, 0), (1, 1)),
    _cs((0, 0)),
    _cs((1,)),
]


def _mc_answer(A, k, samples, seed):
    est = sup_ratio_mc(A, k, samples, seed)
    return est.mean.hex(), est.std_error.hex()


def _bound_answer(A, k, C, limit=None, **kwargs):
    with work_limit(limit):
        rep = check_sup_ratio_bound(A, k, C, **kwargs)
    return (rep.delta.hex(), rep.method, rep.value.hex(), rep.std_error.hex(),
            rep.bound.hex(), rep.margin.hex(), rep.holds, rep.exact)


def _inflated_exact(A, k, x0):
    """sup_ratio_exact with ratio x0 raised to (r + L) * k^n, so that points
    taking it top the k^n cap: the type, message and witness it raises."""
    saved = lemmas._ratio_table
    L, ratios, weights = saved(k)
    ratios[x0] = (ratios[x0] + L) * k**A.n
    lemmas._ratio_table = lambda _k: (L, ratios, weights)
    try:
        return sup_ratio_exact(A, k)
    except InvariantViolated as exc:
        return type(exc).__name__, str(exc), exc.witness
    finally:
        lemmas._ratio_table = saved


def _sup_ratio():
    cases = {}
    for i, A in enumerate(MC_SETS):
        for k, samples, seed in ((1, 50, 1), (4, 300, 9), (6, 200, 2**70 + 3), (513, 20, 5)):
            cases[f"sup_ratio_mc/a{i}/k{k}"] = (_mc_answer, A, k, samples, seed)
        for k in (1, 2, 3, 4):
            if len(A) * (k + 1) ** A.n <= 10**5:
                cases[f"sup_ratio_exact/a{i}/k{k}"] = (sup_ratio_exact, A, k)
        cases[f"sup_ratio_bound/a{i}/exact"] = (_bound_answer, A, 3, 20.0)
        cases[f"sup_ratio_bound/a{i}/mc"] = (_bound_answer, A, 3, 5.0,
                                             dict(limit=2, samples=100, seed=4))
    cases["sup_ratio_exact/refused"] = (sup_ratio_exact, MC_SETS[0], 9)
    for i, k, x0 in ((0, 2, 1), (1, 3, 3), (3, 2, 0)):
        cases[f"sup_ratio_exact/witness/a{i}/k{k}/x{x0}"] = (_inflated_exact, MC_SETS[i], k, x0)
    cases["sup_ratio_mc/refused"] = (_mc_answer, MC_SETS[1], 4, 25 * 10**6 + 1, 1)
    cases["sup_ratio_mc/no_samples"] = (_mc_answer, MC_SETS[1], 4, 0, 1)
    cases["sup_ratio_bound/overflow"] = (_bound_answer, MC_SETS[2], 1, 1000.0)
    # products of 106 limbs beyond the exact budget: Monte Carlo answers
    cases["sup_ratio_bound/switch"] = (_bound_answer, MC_SETS[4], 2235, 20.0, dict(samples=20))
    return cases


def _block(n, k):
    theory = block_theory(n, k)
    return block_construction(n, k), theory.rho, theory.range_size


def _rest():
    cases = {}
    for n, k in ((4, 2), (6, 3), (8, 4), (12, 3), (5, 2), (0, 1), (3, 0), (9, 9)):
        cases[f"block/n{n}/k{k}"] = (_block, n, k)
    for i, w in enumerate([(0,) * 6, tuple(2**i for i in range(10)), (1, 1, 1, 2, 3)]):
        for C in (0.5, 1.0, 20.0):
            cases[f"theorem/v{i}/c{C}"] = (_theorem, w, C)
    for n, top in ((1, 3), (3, 4), (4, 3), (2, 40)):
        pts = lambda n=n, top=top: sweep_points(SweepConfig(n=n, max_weight=top))
        cases[f"sweep/n{n}/m{top}"] = (
            lambda pts=pts: [(p.weights, p.rho, p.range_size, p.epsilon.hex(), p.delta.hex())
                             for p in pts()],)
        cases[f"pareto/n{n}/m{top}"] = (lambda pts=pts: [p.weights for p in pareto_subset(pts())],)
        for C in (0.5, 20.0):
            cases[f"audit/n{n}/m{top}/c{C}"] = (lambda pts=pts, C=C: _audit(pts(), C),)
    return cases


def _theorem(w, C):
    rep = concentration(profile(w))
    t = theorem_check(rep, C)
    return rep.delta.hex(), t.epsilon.hex(), t.bound.hex(), t.holds


def _audit(points, C):
    r = audit(points, C)
    return (r.max_delta_over_eps.hex(), r.argmax_delta_over_eps,
            r.max_delta_over_sqrt_eps.hex(), r.argmax_delta_over_sqrt_eps,
            r.exceeding_2eps, r.within_c)


# -- CLI -----------------------------------------------------------------

CLI_RUNS = [
    ["profile", "1,1,-2"],
    ["profile", "1,1,1", "--levy-radius", "1/2"],
    ["profile", "3,5,7", "--algorithm", "mitm", "--omit-profile"],
    ["profile", "1/2,1,3/4,5,9,10", "--levy-radius", "7/3", "--format", "text"],
    ["profile", "1,2,3", "--algorithm", "dp", "--dp-cap", "5"],
    ["profile", "1e5000"],
    ["profile", "1,,2"],
    ["verify", "injectivity", "--weights", "1,1,2", "--k", "2"],
    ["verify", "injectivity", "--weights", "1,2,2,3", "--k", "2"],
    ["verify", "injectivity", "--weights", "1,2,2,3,4,5", "--k", "3", "--enum-budget", "50"],
    ["verify", "density", "--weights", "1,1,1", "--k", "2", "--tau", "1"],
    ["verify", "density", "--weights", "1,1,2,2", "--k", "3"],
    ["verify", "density", "--weights", "1,1,1", "--k", "2", "--tau", "9"],
    ["verify", "partition", "--weights", "1,2,3,3", "--k", "2", "--tau", "3"],
    ["verify", "partition", "--weights", "1", "--k", "1000000000"],
    ["verify", "moment", "--k", "51", "--s", "1"],
    ["verify", "moment", "--k", "50", "--s", "1", "--precision-bits", "4"],
    ["verify", "moment", "--k", "100", "--s", "2", "--precision-bits", "1"],
    ["verify", "moment", "--k", "1", "--s", "10000"],
    ["verify", "second-moment", "--k", "8"],
    ["verify", "second-moment", "--k", "2"],
    ["verify", "tail", "--k", "64"],
    ["verify", "tail", "--k", "20000"],
    ["verify", "max-ratio", "--k", "9"],
    ["verify", "max-ratio", "--k", "1"],
    ["verify", "supratio", "--weights", "1,2,3", "--k", "3"],
    ["verify", "supratio", "--weights", "1,2", "--k", "3", "--enum-budget", "2",
     "--samples", "500", "--seed", "9"],
    ["verify", "supratio", "--weights", "1,2", "--k", "2", "--samples", "0"],
    ["verify", "supratio", "--weights", "1,2", "--k", "3000"],
    ["verify", "supratio", "--weights", "0,0", "--k", "9999"],
    ["verify", "supratio", "--weights", "0,0", "--k", "9999", "--samples", "45000"],
    ["verify", "supratio", "--weights", "1,2,4", "--k", "1", "--c", "1000"],
    ["verify", "theorem", "--weights", "1,2,4,8", "--c", "20"],
    ["verify", "theorem", "--weights", "3,5,7,11,13", "--c", "nan"],
    ["frontier", "--n", "3", "--max-weight", "4", "--output", "{tmp}/f.csv"],
    ["frontier", "--n", "2", "--max-weight", "3", "--output", "{tmp}/f.csv",
     "--format", "csv"],
    ["frontier", "--n", "2", "--max-weight", "3000", "--output", "{tmp}/f.csv"],
] + [
    ["construct", "block", "--n", str(n), "--k", str(k)]
    for n, k in ((4, 2), (8, 2), (12, 3), (12, 4), (5, 2), (0, 1),
                 (60000, 1), (4000, 4000), (48, 1), (10**6, 10**6), (10**7, 10**7),
                 (14000, 1), (13000, 1), (3000, 1), (100, 2), (3000, 3000),
                 (99990, 99990), (300000, 300000), (1000, 10))
] + [
    # settings from a file: a cap and the format, one overridden by its flag,
    # and an unknown key
    ["profile", "1,2,3,5", "--config", "{tmp}/ok.cfg"],
    ["verify", "moment", "--k", "51", "--s", "1", "--config", "{tmp}/ok.cfg",
     "--format", "json"],
    ["profile", "1,2", "--config", "{tmp}/unknown.cfg"],
    # the work limit on each route that reads it, from a flag or a file, and
    # on a check whose charges it does not reach
    ["verify", "density", "--weights", "1,1,2,2", "--k", "3", "--enum-budget", "30"],
    ["verify", "partition", "--weights", "1,2,3,4,5", "--k", "3", "--enum-budget", "100"],
    ["frontier", "--n", "3", "--max-weight", "4", "--output", "{tmp}/f.csv",
     "--enum-budget", "17590"],
    ["frontier", "--n", "3", "--max-weight", "4", "--output", "{tmp}/f.csv",
     "--enum-budget", "17589"],
    ["verify", "injectivity", "--weights", "1,2,2,3,4,5", "--k", "3", "--config",
     "{tmp}/budget.cfg"],
    ["verify", "tail", "--k", "64", "--enum-budget", "1"],
    # the kernel caps: refusals by one kernel or by all three, in auto's
    # order; falls through to the kernel that answers; the cube-set builders'
    # cap; and the precision cap from a file
    ["profile", "1,1,1,1,1", "--algorithm", "naive", "--naive-cap", "4"],
    ["profile", "1,2,4,8", "--algorithm", "mitm", "--mitm-cap", "4"],
    ["profile", "1,2,3", "--naive-cap", "2", "--dp-cap", "2", "--mitm-cap", "2"],
    ["verify", "theorem", "--weights", "1,100,10000", "--naive-cap", "2"],
    ["construct", "block", "--n", "12", "--k", "3", "--dp-cap", "10", "--naive-cap", "4"],
    ["verify", "density", "--weights", "1,1,2,2", "--k", "2", "--naive-cap", "3"],
    ["verify", "injectivity", "--weights", "1,1,2", "--k", "2", "--naive-cap", "2"],
    ["verify", "supratio", "--weights", "1,2,3,5,8", "--k", "6", "--enum-budget", "1000",
     "--naive-cap", "4"],
    ["verify", "moment", "--k", "50", "--s", "1", "--config", "{tmp}/precision.cfg"],
    # levy over a table of 2-byte slots, read through one prefix: a wide
    # window, and a zero-width one over weights of both signs
    ["profile", "3,5,7,11,13,17,19,23,29,31", "--levy-radius", "5", "--omit-profile"],
    ["profile", "1,-1,2,-3,5,8,-13,21", "--levy-radius", "0"],
]
# the --config files, written into each run's temporary directory
CONFIG_FILES = {
    "ok.cfg": "# run settings\nnaive_cap = 20\n\ndp_cap=100  # table slots\nformat = text\n",
    "unknown.cfg": "seed = 1\nbogus = 2\n",
    "budget.cfg": "enum_budget = 50\n",
    "precision.cfg": "precision_bits = 4\n",
}


def _cli_answer(argv):
    """Exit code, stdout and stderr of one in-process run in a temporary
    directory holding CONFIG_FILES, with the directory's name replaced and
    the precision variable unset."""
    saved = os.environ.pop(cli.ENV_PRECISION, None)
    out, err = io.StringIO(), io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in CONFIG_FILES.items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            args = [a.format(tmp=tmp) for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(args)
                except SystemExit as exc:  # argparse refuses bad usage this way
                    code = exc.code
            return code, out.getvalue().replace(tmp, "{tmp}"), err.getvalue().replace(tmp, "{tmp}")
    finally:
        if saved is not None:
            os.environ[cli.ENV_PRECISION] = saved


def cases() -> dict:
    """Every input of the corpus, by name: a callable, its arguments and,
    last, an optional dict of its keyword arguments."""
    out = {}
    for group in (_profiles, _cube_sets, _sumsets, _numerics, _binomial_checks,
                  _sup_ratio, _rest):
        out.update(group())
    for argv in CLI_RUNS:
        out["cli/" + " ".join(argv)] = (_cli_answer, argv)
    return out


def compute() -> dict:
    """The digest of every input's answer, by name."""
    out = {}
    for name, (fn, *args) in cases().items():
        kwargs = args.pop() if args and isinstance(args[-1], dict) else {}
        out[name] = digest(_outcome(fn, *args, **kwargs))
    return out


if __name__ == "__main__":
    answers = compute()
    PINS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(answers)} answers in {PINS}", file=sys.stderr)
