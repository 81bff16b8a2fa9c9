"""Command-line surface: profiling, lemma verification, frontier sweeps,
and the block construction, with deterministic JSON/CSV output.

Every command is a pure function of its flags plus the seed: a record's
values are written by the one format of ``encode``, the same in JSON and
text (a Fraction as a "num/den" string, an enum by its value), floats with
shortest-repr JSON, CSV floats with 12 significant digits, and timing is
withheld unless requested so that re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from enum import Enum

from . import __version__
from .errors import DEFAULT_C, DEFAULT_DP_CAPACITY, DEFAULT_MAX_BITS, DEFAULT_MITM_CAP
from .errors import DEFAULT_NAIVE_CAP, BadParams, InvariantViolated, TooLarge, Undecidable
from .errors import work_limit

# Each command and verify runner imports its layers when it runs, reading the
# names from the layer modules at call time, so a process loads only those.

ENV_PRECISION = "ANTICONC_PRECISION_BITS"
FORMATS = ("json", "csv", "text")

CSV_HEADER = (
    "n,weights,rho_num,rho_den,range_size,"
    "epsilon,delta,delta_over_eps,delta_over_sqrt_eps"
)


def _checked(parse, ok, what: str):
    """An argparse type that parses and validates; file and env values use it too."""
    def check(text):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return check


_positive = _checked(int, lambda v: v >= 1, "a positive integer")
_finite = _checked(float, math.isfinite, "a finite number")
_format = _checked(str, FORMATS.__contains__, "one of " + ", ".join(FORMATS))


# One row per run setting: namespace attribute, config-file key (the flag is
# the key with dashes), parser that also validates, default, and the
# environment variable that can set it.  Precedence: defaults < --config file
# < environment < flags.  The positive-integer settings are the limits that
# each record lists under parameters.config, by attribute, and the names
# cli.main sets them by in the one errors.work_limit scope around a command.
_SETTINGS = (
    ("seed", "seed", int, 0, None),
    ("precision_cap_bits", "precision_bits", _positive, DEFAULT_MAX_BITS,
     ENV_PRECISION),
    ("naive_cap", "naive_cap", _positive, DEFAULT_NAIVE_CAP, None),
    ("dp_cap", "dp_cap", _positive, DEFAULT_DP_CAPACITY, None),
    ("mitm_cap", "mitm_cap", _positive, DEFAULT_MITM_CAP, None),
    ("enum_budget", "enum_budget", _positive, None, None),  # None: errors.budget defaults
    ("output_format", "format", _format, "json", None),
)
_FILE_TYPES = {key: typ for _, key, typ, _, _ in _SETTINGS}


def _convert(typ, text: str, where: str):
    try:
        return typ(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise BadParams(f"{where}: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Read a key=value config file; unknown keys are rejected."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise BadParams(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadParams(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FILE_TYPES:
            raise BadParams(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _convert(_FILE_TYPES[key], value, f"{path}:{lineno}: {key}")
    return out


def resolve_settings(args) -> None:
    """Write every run setting onto the parsed namespace, where a flag that
    was not given is absent: defaults < --config file < environment < flags."""
    values = load_config_file(args.config) if hasattr(args, "config") else {}
    for attr, key, typ, default, env in _SETTINGS:
        value = values.get(key, default)
        if env and env in os.environ:
            value = _convert(typ, os.environ[env], env)
        setattr(args, attr, getattr(args, attr, value))


def parse_weights(text: str) -> tuple:
    """Comma-separated integers or rationals; rationals are cleared by the
    denominator lcm, which preserves the profile's coincidence pattern."""
    from .subsetsum import rational

    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise BadParams(f"bad weights {text!r}")
    fracs = [rational("weights", p) for p in parts]
    scale = math.lcm(*(f.denominator for f in fracs))
    return tuple(int(f * scale) for f in fracs), scale


def f12(x: float) -> str:
    return f"{x:.12g}"


def csv_rows(points) -> list:
    """The header and a row per point; the answer fields are formatted once
    for each distinct answer, which many points of a sweep share."""
    from .frontier import delta_over_eps, delta_over_sqrt_eps

    rows, answers = [CSV_HEADER], {}
    for p in points:
        n = len(p.weights)
        key = (n, p.rho.as_integer_ratio(), p.range_size, p.epsilon, p.delta)
        if key not in answers:
            answers[key] = ",".join((
                str(p.rho.numerator), str(p.rho.denominator), str(p.range_size),
                f12(p.epsilon), f12(p.delta),
                f12(delta_over_eps(p)), f12(delta_over_sqrt_eps(p)),
            ))
        rows.append(f"{n},{';'.join(map(str, p.weights))},{answers[key]}")
    return rows


def encode(value):
    """The one format of a record value that JSON cannot write, in JSON and
    text alike: a Fraction (integral ones too) as "num/den", an enum by its
    value.  Tuples are written as JSON lists.  Any other type is a TypeError,
    as ``json.dumps`` raises."""
    if isinstance(value, Enum):
        return value.value
    from fractions import Fraction  # loaded already by whatever made one

    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _flatten(prefix: str, value, lines: list):
    import json

    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], lines)
    elif isinstance(value, (list, tuple)):
        lines.append(f"{prefix}: {json.dumps(value, default=encode)}")
    elif value is None or isinstance(value, (str, int, float)):
        lines.append(f"{prefix}: {value}")
    else:
        lines.append(f"{prefix}: {encode(value)}")


def emit(record: dict, args) -> None:
    """Write the record as text or JSON (in csv the frontier wrote its table)."""
    import json

    if args.output_format == "text":
        lines: list = []
        _flatten("", record, lines)
        sys.stdout.write("\n".join(lines) + "\n")
    elif args.output_format == "json":
        sys.stdout.write(json.dumps(record, sort_keys=True, indent=2, default=encode) + "\n")


def _config_params(args) -> dict:
    return {a: getattr(args, a) for a, _, typ, *_ in _SETTINGS if typ is _positive}


def cmd_profile(args) -> tuple:
    from .subsetsum import concentration, levy, profile, rational

    w, scale = parse_weights(args.weights)
    p = profile(w, args.algorithm)
    outputs = dict(vars(concentration(p)))
    del outputs["n"]
    if not args.omit_profile:
        outputs["profile"] = list(p.items())
    if args.levy_radius is not None:
        radius = rational("radius", args.levy_radius)
        tau, prob = levy(p, radius)
        outputs["levy"] = {"radius": radius, "tau": tau, "prob": prob}
    parameters = {
        "weights": args.weights,
        "scaled_weights": w,
        "scale": scale,
        "algorithm": args.algorithm,
    }
    return parameters, outputs, 0


def _fiber_at(w, tau) -> tuple:
    """The fiber at tau, or at the smallest most popular sum when tau is None."""
    from .subsetsum import fiber

    B = fiber(w, tau)
    if len(B) == 0:
        raise BadParams(f"fiber at tau={tau} is empty")
    if tau is None:
        tau = sum(x for x, bit in zip(w, next(iter(B))) if bit)
    return tau, B


# Each verify runner takes the parsed --weights (None when not required) and
# returns (outputs, holds, parameters beyond the required flags); holds=None
# marks a reported comparison, which exits 0.


def _verify_injectivity(args, w):
    from .subsetsum import unique_preimages
    from .sumsets import check_injectivity

    A = unique_preimages(w)
    tau, B = _fiber_at(w, None)
    res = check_injectivity(A, B, args.k)
    return dict(vars(res), tau=tau, a_size=len(A), b_size=len(B)), res.holds, {}


def _verify_density(args, w):
    from fractions import Fraction

    from .sumsets import density_ratio_max

    tau, B = _fiber_at(w, args.tau)
    ratio = density_ratio_max(B, args.k)
    bound = Fraction(1 << B.n, len(B)) ** args.k
    holds = ratio <= bound
    outputs = dict(b_size=len(B), ratio=ratio, bound=bound, holds=holds)
    return outputs, holds, {"tau": tau}


def _verify_partition(args, w):
    from .subsetsum import unique_preimages
    from .sumsets import partition_total

    A = unique_preimages(w)
    tau, B = _fiber_at(w, args.tau)
    total = partition_total(A, B, args.k)
    return {"total": total, "holds": total == 1}, total == 1, {"tau": tau}


def _verify_moment(args, w):
    from .lemmas import Verdict, check_initial_bound

    rec = check_initial_bound(args.k, args.s)
    outputs = dict(vars(rec), rhs=str(rec.rhs))  # text here, so emit loads no numerics
    # a failing verdict is legitimate outside the lemma's hypothesis; when
    # the hypothesis itself is undecided, the verdict decides the exit code
    holds = None if rec.in_hypothesis is False else rec.verdict is Verdict.HOLDS
    return outputs, holds, {}


def _verify_second_moment(args, w):
    from .lemmas import Verdict, second_moment_identity

    rec = second_moment_identity(args.k)
    return dict(vars(rec)), rec.verdict is Verdict.HOLDS, {}


def _verify_verdict(check: str):
    """The runner of the lemmas check of that name, which returns a Verdict."""
    def run(args, w):
        from . import lemmas

        verdict = getattr(lemmas, check)(args.k)
        return {"verdict": verdict}, verdict is lemmas.Verdict.HOLDS, {}

    return run


def _verify_supratio(args, w):
    from .lemmas import check_sup_ratio_bound
    from .subsetsum import unique_preimages

    A = unique_preimages(w)
    rep = check_sup_ratio_bound(A, args.k, args.c, samples=args.samples, seed=args.seed)
    outputs = dict(vars(rep), n=A.n, a_size=len(A))
    if rep.exact is None:
        del outputs["exact"]
    # reported, never asserted: the constant is a free parameter
    return outputs, None, {"c": args.c, "samples": args.samples}


def _verify_theorem(args, w):
    from .lemmas import theorem_check
    from .subsetsum import concentration, profile

    rep = concentration(profile(w))
    outputs = dict(vars(rep), **vars(theorem_check(rep, args.c)))  # the clamped epsilon
    del outputs["n"], outputs["tau"]
    return outputs, None, {"c": args.c}


# verify target -> (required flags, runner)
VERIFY = {
    "injectivity": (("weights", "k"), _verify_injectivity),
    "density": (("weights", "k"), _verify_density),
    "partition": (("weights", "k"), _verify_partition),
    "moment": (("k", "s"), _verify_moment),
    "second-moment": (("k",), _verify_second_moment),
    "tail": (("k",), _verify_verdict("tail_check")),
    "max-ratio": (("k",), _verify_verdict("max_ratio_bound")),
    "supratio": (("weights", "k"), _verify_supratio),
    "theorem": (("weights",), _verify_theorem),
}


def cmd_verify(args) -> tuple:
    required, runner = VERIFY[args.name]
    for name in required:
        if getattr(args, name) is None:
            raise BadParams(f"--{name} is required")
    w = parse_weights(args.weights)[0] if "weights" in required else None
    outputs, holds, extra = runner(args, w)
    parameters = {name: getattr(args, name) for name in required}
    parameters.update(extra, name=args.name)
    return parameters, outputs, 0 if holds is None or holds else 1


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParams(f"cannot write {path}: {exc}") from exc


def cmd_frontier(args) -> tuple:
    import hashlib

    from .frontier import SweepConfig, audit, pareto_subset, sweep_points

    points = sweep_points(SweepConfig(args.n, args.max_weight, args.workers))
    frontier = pareto_subset(points)
    report = audit(points, args.c)
    csv_text = "\n".join(csv_rows(points)) + "\n"
    digest = hashlib.sha256(csv_text.encode("ascii")).hexdigest()
    _write(args.output, csv_text)
    if args.plot_data:
        plot_lines = ["# epsilon delta"]
        plot_lines += [f"{f12(p.epsilon)} {f12(p.delta)}" for p in points]
        _write(args.plot_data, "\n".join(plot_lines) + "\n")
    outputs = dict(vars(report), candidates=report.points, frontier_size=len(frontier),
                   frontier_weights=[p.weights for p in frontier], csv_path=args.output,
                   csv_sha256=digest, plot_path=args.plot_data)
    del outputs["points"]
    parameters = dict(
        n=args.n, max_weight=args.max_weight, workers=args.workers, c=args.c
    )
    if args.output_format == "csv":  # the CSV replaces the record on stdout
        sys.stdout.write(csv_text)
    return parameters, outputs, 0


def cmd_construct(args) -> tuple:
    from .lemmas import block_construction, block_theory
    from .subsetsum import concentration, profile

    # the kernels refuse a vector before any closed form is computed
    weights = block_construction(args.n, args.k)
    rep = concentration(profile(weights))
    theory = block_theory(args.n, args.k)
    match = rep.rho == theory.rho and rep.range_size == theory.range_size
    outputs = dict(weights=weights, match=match, delta_over_eps_theory=theory.delta_over_eps,
                   epsilon=rep.epsilon, delta=rep.delta)
    for name in ("rho", "range_size"):  # the closed form against the kernels
        outputs["predicted_" + name] = getattr(theory, name)
        outputs["measured_" + name] = getattr(rep, name)
    parameters = {"shape": "block", "n": args.n, "k": args.k}
    return parameters, outputs, 0 if match else 1


class _Parser(argparse.ArgumentParser):
    """Bad usage exits 2 with one ``error:`` line, as every refusal does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any "-<digit>..." is a value, so a weight vector may start with a
        # negative entry; argparse's own pattern takes only "-1" and "-.5"
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # the run options, registered once and shared by the root parser and every
    # subcommand; a flag not given is absent from the namespace, so it may
    # stand on either side of the subcommand, and the one after it wins
    run = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for attr, key, typ, _, env in _SETTINGS:
        run.add_argument("--" + key.replace("_", "-"), dest=attr, metavar=key.upper(),
                         type=typ, help=f"env {env}" if env else None)
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--timing", action="store_true",
                     help="include elapsed time (breaks byte-identical re-runs)")
    parser = _Parser(
        prog="anticonc",
        description=(
            "Exact subset-sum concentration and range computations, "
            "iterated sumsets, and verified binomial-moment inequalities."
        ),
        parents=[run],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profile = sub.add_parser(
        "profile", parents=[run], help="exact subset-sum profile")
    p_profile.add_argument("weights", help="comma-separated weights")
    p_profile.add_argument(
        "--algorithm", choices=("auto", "naive", "dp", "mitm"), default="auto"
    )
    p_profile.add_argument("--levy-radius", default=None)
    p_profile.add_argument("--omit-profile", action="store_true")

    p_verify = sub.add_parser("verify", parents=[run], help="check one statement")
    p_verify.add_argument("name", choices=VERIFY)
    p_verify.add_argument("--weights", default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--s", type=int, default=None)
    p_verify.add_argument("--tau", type=int, default=None)
    p_verify.add_argument("--c", type=_finite, default=DEFAULT_C)
    p_verify.add_argument("--samples", type=_positive, default=10**5)

    p_frontier = sub.add_parser(
        "frontier", parents=[run], help="canonical sweep to CSV")
    p_frontier.add_argument("--n", type=int, required=True)
    p_frontier.add_argument("--max-weight", type=int, required=True)
    p_frontier.add_argument("--workers", type=int, default=1)
    p_frontier.add_argument("--output", default="frontier.csv")
    p_frontier.add_argument("--plot-data", default=None)
    p_frontier.add_argument("--c", type=_finite, default=DEFAULT_C)

    p_construct = sub.add_parser("construct", parents=[run], help="named constructions")
    p_construct.add_argument("shape", choices=("block",))
    p_construct.add_argument("--n", type=int, required=True)
    p_construct.add_argument("--k", type=int, required=True)
    return parser


_COMMANDS = {
    "profile": cmd_profile,
    "verify": cmd_verify,
    "frontier": cmd_frontier,
    "construct": cmd_construct,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        resolve_settings(args)
        if args.output_format == "csv" and args.command != "frontier":
            raise BadParams("csv format applies to the frontier command only")
        config = _config_params(args)
        with work_limit(**config):  # every limit, read where it is charged
            parameters, outputs, code = _COMMANDS[args.command](args)
        parameters["config"] = config
        elapsed = round(time.monotonic() - started, 6)
        timing = {"elapsed_s": elapsed} if getattr(args, "timing", False) else None
        record = dict(command=args.command, parameters=parameters, outputs=outputs,
                      seed=args.seed, version=__version__, timing=timing)
        emit(record, args)
    except BadParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a ValueError past BadParams is an int too long to print in decimal
    except (TooLarge, Undecidable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolated as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    return code
