"""The four benchmark workloads: their input pools, one op each, and the
answer each op is checked against.

Every workload draws its inputs from a fixed pool whose answers are pinned
in ``pins.json``; the seed only chooses which pool members each pass runs
and in what order, so any seed is checkable.  Pool members are generated
from a blake2b counter stream, not from ``random``, so they are the same on
every Python version.  A pool is stratified into classes of equal shape
(same ``n`` and span, same ``(n, k, |A|)``, same command), and every pass
runs the same number of members of each class, so the work in a pass
barely depends on the seed.

Library calls go through module attributes (``self.ac.subsetsum.profile``),
never through names bound at import, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections import namedtuple
from fractions import Fraction

SWEEP_N = range(1, 8)
SWEEP_MAX_WEIGHT = 12

# (n, span): auto picks the enumerator for the first three (2^n < n*span)
# and the table for the last four; spans cover 1e4..1e9.  Each op costs
# about 0.05-0.25 s, so a run holds enough passes for a steady tail.
WIDE_CLASSES = (
    (16, 10**9),
    (17, 10**5),
    (18, 5 * 10**4),
    (19, 10**4),
    (20, 5 * 10**4),
    (21, 4 * 10**4),
    (22, 5 * 10**4),
)
WIDE_VARIANTS = 8

# (n, k, |A|, samples): the criterion-9 shape, n <= 5, k <= 6, |A| <= 8,
# sized so that each op (estimate plus exact value) costs 0.1-0.25 s.
MC_CLASSES = (
    (5, 4, 8, 1000),
    (4, 6, 8, 1500),
    (5, 3, 8, 2000),
    (4, 5, 8, 2000),
    (5, 2, 8, 2000),
    (4, 4, 6, 2000),
    (3, 6, 6, 3000),
)
MC_VARIANTS = 8

# One slot per command shape; each pass runs two variants of every normal
# slot, then one bad-usage refusal, one cap-hit refusal and the overflow case.
CLI_SLOTS = {
    "injectivity": [
        ["verify", "injectivity", "--weights", "1,2,2,3", "--k", "2"],
        ["verify", "injectivity", "--weights", "1,1,2,3,5", "--k", "3"],
        ["verify", "injectivity", "--weights", "1,2,3,4", "--k", "2"],
        ["verify", "injectivity", "--weights", "2,3,5,7", "--k", "2"],
    ],
    "density": [
        ["verify", "density", "--weights", "1,1,2", "--k", "2"],
        ["verify", "density", "--weights", "1,1,1,2,3", "--k", "3"],
        ["verify", "density", "--weights", "1,2,2,3", "--k", "2"],
        ["verify", "density", "--weights", "1,1,2,2", "--k", "3", "--tau", "2"],
    ],
    "partition": [
        ["verify", "partition", "--weights", "1,1,2", "--k", "2"],
        ["verify", "partition", "--weights", "1,2,2,3,4", "--k", "3"],
        ["verify", "partition", "--weights", "1,1,1,2", "--k", "2"],
        ["verify", "partition", "--weights", "1,2,3,3", "--k", "2", "--tau", "3"],
    ],
    "moment": [
        ["verify", "moment", "--k", "51", "--s", "1"],
        ["verify", "moment", "--k", "75", "--s", "1"],
        ["verify", "moment", "--k", "120", "--s", "2"],
        ["verify", "moment", "--k", "180", "--s", "2"],
    ],
    "second-moment": [
        ["verify", "second-moment", "--k", "8"],
        ["verify", "second-moment", "--k", "16"],
        ["verify", "second-moment", "--k", "24"],
        ["verify", "second-moment", "--k", "40"],
    ],
    "tail": [
        ["verify", "tail", "--k", "64"],
        ["verify", "tail", "--k", "100"],
        ["verify", "tail", "--k", "150"],
        ["verify", "tail", "--k", "200"],
    ],
    "max-ratio": [
        ["verify", "max-ratio", "--k", "9"],
        ["verify", "max-ratio", "--k", "50"],
        ["verify", "max-ratio", "--k", "100"],
        ["verify", "max-ratio", "--k", "150"],
    ],
    "supratio": [
        ["verify", "supratio", "--weights", "1,2,3", "--k", "3"],
        ["verify", "supratio", "--weights", "1,1,2", "--k", "2"],
        ["verify", "supratio", "--weights", "1,2,4", "--k", "2"],
        ["verify", "supratio", "--weights", "1,3,4", "--k", "3"],
    ],
    "theorem": [
        ["verify", "theorem", "--weights", "1,2,4,8", "--c", "20"],
        ["verify", "theorem", "--weights", "1,1,1,1,1,1", "--c", "5"],
        ["verify", "theorem", "--weights", "3,5,7,11,13", "--c", "20"],
        ["verify", "theorem", "--weights", "1,2,3,4,5,6,7", "--c", "2"],
    ],
    "profile": [
        ["profile", "1,2,3,5,8,13,21", "--levy-radius", "3/2"],
        ["profile", "3,5,7,11,13,17,19,23,29,31", "--levy-radius", "5",
         "--omit-profile"],
        ["profile", "1,-1,2,-3,5,8,-13,21", "--levy-radius", "0"],
        ["profile", "1/2,1,3/4,5,9,10", "--levy-radius", "7/3"],
    ],
    "construct": [
        ["construct", "block", "--n", "8", "--k", "2"],
        ["construct", "block", "--n", "12", "--k", "3"],
        ["construct", "block", "--n", "12", "--k", "4"],
        ["construct", "block", "--n", "10", "--k", "2"],
    ],
}
CLI_NORMAL_PER_SLOT = 2
CLI_BAD_USAGE = [  # must exit 2
    ["verify", "density", "--k", "2"],
    ["profile", "1,,2"],
    ["construct", "block", "--n", "7", "--k", "2"],
    ["verify", "moment", "--k", "x"],
    ["verify", "tail", "--k", "0"],
]
CLI_CAP_HIT = [  # must exit 1
    ["verify", "injectivity", "--weights", "1,2,2,3,4,5", "--k", "3",
     "--enum-budget", "50"],
    ["profile", "1,2,3", "--naive-cap", "2", "--dp-cap", "2", "--mitm-cap", "2"],
    ["verify", "partition", "--weights", "1,2,3,4,5", "--k", "3",
     "--enum-budget", "100"],
    ["verify", "supratio", "--weights", "1,2,3,5,8", "--k", "6",
     "--enum-budget", "1000", "--naive-cap", "4"],
]
# Raises OverflowError from math.exp in check_sup_ratio_bound at the commit
# that pinned these answers.  It stays in every pass: until that is fixed it
# fails, and the fix shows as a drop in failed ops.
CLI_OVERFLOW = ["verify", "supratio", "--weights", "1,2,4", "--k", "1", "--c", "1000"]


def _stream(tag: str):
    """Deterministic 64-bit integers keyed by tag, independent of Python's
    random module."""
    i = 0
    while True:
        digest = hashlib.blake2b(f"{tag}/{i}".encode(), digest_size=8).digest()
        yield int.from_bytes(digest, "big")
        i += 1


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# One pool member: its pin key, the library input, and, for the documented
# known defect only, the exit codes that would count as fixed.
Item = namedtuple("Item", "key data expect_exit_in", defaults=(None,))


class Workload:
    """Pool, schedule and op of one workload.  ``pool`` returns a list of
    (count, items) classes; pass p runs, from each class, ``count`` members
    starting at a seed-chosen offset plus p*count, in a seed-shuffled
    order."""

    batch = False  # True: one op's latency is not observable, only its pass's

    def __init__(self, anticonc, seed: int, pins=None):
        self.ac = anticonc
        self.seed = seed
        self.pins = pins or {}
        self.classes = self.pool()
        rng = random.Random(seed)
        self.offsets = [rng.randrange(len(items)) for _, items in self.classes]

    def pool(self) -> list:
        raise NotImplementedError

    def items(self):
        for _, items in self.classes:
            yield from items

    def pass_items(self, p: int) -> list:
        out = []
        for (count, items), off in zip(self.classes, self.offsets):
            for j in range(count):
                out.append(items[(off + p * count + j) % len(items)])
        random.Random(f"{self.seed}/{p}").shuffle(out)
        return out

    def run(self, item):
        raise NotImplementedError

    def ops(self, item, result) -> int:
        return 1

    def answer(self, item, result):
        raise NotImplementedError

    def check(self, item, result) -> str:
        """'ok', or a short reason why the op failed."""
        pinned = self.pins.get(item.key)
        if pinned is None:
            return "no pinned answer"
        got = self.answer(item, result)
        return "ok" if got == pinned else f"answer {got!r} != pinned {pinned!r}"


class Sweep(Workload):
    """Exhaustive canonical sweep n = 1..7, weights <= 12, one worker, then
    audit and pareto_subset.  One op is one vector; the seed has no effect.
    sweep_points is a batch call, so a vector's latency is its pass's mean."""

    batch = True

    def pool(self):
        return [(1, [Item(f"n={n}", n)]) for n in SWEEP_N]

    def pass_items(self, p):
        return [items[0] for _, items in self.classes]

    def run(self, item):
        fr = self.ac.frontier
        pts = fr.sweep_points(fr.SweepConfig(n=item.data, max_weight=SWEEP_MAX_WEIGHT))
        return pts, fr.audit(pts), fr.pareto_subset(pts)

    def ops(self, item, result):
        if result is None:  # the op raised: charge the pinned vector count
            return self.pins.get(item.key, {}).get("points", 1)
        return len(result[0])

    def answer(self, item, result):
        pts, rep, par = result
        lines = [
            f"{p.weights};{_rat(p.rho)};{p.range_size};"
            f"{p.epsilon.hex()};{p.delta.hex()}"
            for p in pts
        ]
        return {
            "points": len(pts),
            "points_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "audit": [
                rep.points,
                rep.max_delta_over_eps.hex(),
                list(rep.argmax_delta_over_eps),
                rep.max_delta_over_sqrt_eps.hex(),
                list(rep.argmax_delta_over_sqrt_eps),
                _digest(rep.exceeding_2eps),
                rep.within_c,
            ],
            "pareto": _digest([p.weights for p in par]),
        }


def wide_vector(n: int, span: int, variant: int) -> tuple:
    """n nonzero weights of random sign whose magnitudes sum to span."""
    s = _stream(f"profile_wide/{n}/{span}/{variant}")
    cuts: set = set()
    while len(cuts) < n - 1:
        cuts.add(1 + next(s) % (span - 1))
    edges = [0] + sorted(cuts) + [span]
    return tuple(
        (b - a) if next(s) & 1 else -(b - a) for a, b in zip(edges, edges[1:])
    )


class ProfileWide(Workload):
    """Seeded n = 16..22 vectors with spans 1e4..1e9 through
    profile(w, "auto"), concentration and levy.  One op is one vector."""

    def pool(self):
        return [
            (1, [
                Item(f"n={n},span={span}/v{v}", (wide_vector(n, span, v), span // 1000))
                for v in range(WIDE_VARIANTS)
            ])
            for n, span in WIDE_CLASSES
        ]

    def run(self, item):
        ss = self.ac.subsetsum
        w, radius = item.data
        p = ss.profile(w, "auto")
        return ss.concentration(p), ss.levy(p, radius)

    def answer(self, item, result):
        rep, (tau, prob) = result
        return {
            "input": _digest(item.data),
            "rho": _rat(rep.rho),
            "tau": rep.tau,
            "range_size": rep.range_size,
            "levy": [_rat(tau), _rat(prob)],
        }


def cube_subset(n: int, size: int, tag: str) -> list:
    s = _stream(tag)
    masks: list = []
    while len(masks) < size:
        m = next(s) % (1 << n)
        if m not in masks:
            masks.append(m)
    return [tuple((m >> i) & 1 for i in range(n)) for m in masks]


class SupRatioMC(Workload):
    """Seeded (A, k) pairs of the criterion-9 shape through sup_ratio_mc
    with frozen seeds, plus sup_ratio_exact on the same pair.  One op is
    one estimate together with its exact value."""

    def pool(self):
        classes = []
        for n, k, size, samples in MC_CLASSES:
            cls = []
            for v in range(MC_VARIANTS):
                tag = f"supratio_mc/{n}/{k}/{size}/{v}"
                A = self.ac.subsetsum.CubeSet.from_vectors(n, cube_subset(n, size, tag))
                mc_seed = next(_stream(tag + "/seed"))
                cls.append(Item(f"n={n},k={k},a={size}/v{v}", (A, k, samples, mc_seed)))
            classes.append((1, cls))
        return classes

    def run(self, item):
        lm = self.ac.lemmas
        A, k, samples, mc_seed = item.data
        return lm.sup_ratio_mc(A, k, samples, mc_seed), lm.sup_ratio_exact(A, k)

    def answer(self, item, result):
        est, exact = result
        A, k, samples, mc_seed = item.data
        return {
            "input": _digest((sorted(A.vectors), k, samples, mc_seed)),
            "mean": est.mean.hex(),
            "std_error": est.std_error.hex(),
            "exact": _rat(exact),
            "within_3sigma": abs(est.mean - float(exact)) <= 3 * est.std_error,
        }


class VerifyCLI(Workload):
    """A seeded mix of in-process cli.main(argv) calls with stdout
    captured.  One op is one invocation."""

    def pool(self):
        classes = [
            (CLI_NORMAL_PER_SLOT,
             [Item(f"{slot}/v{v}", argv) for v, argv in enumerate(variants)])
            for slot, variants in CLI_SLOTS.items()
        ]
        classes.append(
            (1, [Item(f"bad-usage/v{v}", a) for v, a in enumerate(CLI_BAD_USAGE)])
        )
        classes.append(
            (1, [Item(f"cap-hit/v{v}", a) for v, a in enumerate(CLI_CAP_HIT)])
        )
        classes.append((1, [Item("overflow/c1000", CLI_OVERFLOW, expect_exit_in=(0, 1))]))
        return classes

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.ac.cli.main(list(item.data))
            except SystemExit as exc:  # argparse refuses bad usage this way
                code = exc.code
        return code, out.getvalue()

    def answer(self, item, result):
        code, stdout = result
        return {
            "input": _digest(item.data),
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        }

    def check(self, item, result):
        if item.expect_exit_in is not None:
            code = result[0]
            return "ok" if code in item.expect_exit_in else f"exit {code}"
        return super().check(item, result)


WORKLOADS = {
    "sweep": Sweep,
    "profile_wide": ProfileWide,
    "supratio_mc": SupRatioMC,
    "verify_cli": VerifyCLI,
}
