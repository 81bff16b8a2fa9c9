import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anticonc
from anticonc import cli
from anticonc.errors import BadParams
from anticonc.frontier import SweepConfig, audit, sweep_points
from anticonc.lemmas import Verdict, check_sup_ratio_bound, theorem_check
from anticonc.subsetsum import concentration, profile, unique_preimages

CMD = [sys.executable, "-m", "anticonc"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("ANTICONC_PRECISION_BITS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + [str(a) for a in args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def run_json(*args, expect=0, **kw):
    res = run_cli(*args, **kw)
    assert res.returncode == expect, res.stderr
    return json.loads(res.stdout)


def f12(x):
    return f"{x:.12g}"


def test_profile_examples():
    rec = run_json("profile", "1,1,1")
    assert rec["command"] == "profile"
    out = rec["outputs"]
    assert out["rho"] == "3/8" and out["tau"] == 1 and out["range_size"] == 4
    assert out["profile"] == [[0, 1], [1, 3], [2, 3], [3, 1]]
    assert rec["timing"] is None and rec["seed"] == 0

    assert run_json("profile", "0,0")["outputs"]["rho"] == "1/1"
    assert run_json("profile", "1,10,100")["outputs"]["rho"] == "1/8"


def test_profile_rational_weights_scale():
    rec = run_json("profile", "1/2,1")
    assert rec["parameters"]["scaled_weights"] == [1, 2]
    assert rec["parameters"]["scale"] == 2
    assert rec["outputs"]["rho"] == run_json("profile", "1,2")["outputs"]["rho"]


def test_profile_levy():
    out = run_json("profile", "1,1,1", "--levy-radius", "1")["outputs"]
    assert out["levy"] == {"radius": "1/1", "tau": "1/1", "prob": "7/8"}
    out = run_json("profile", "1,1,1", "--levy-radius", "1/2")["outputs"]
    assert out["levy"] == {"radius": "1/2", "tau": "3/2", "prob": "3/4"}


def test_profile_algorithms_agree():
    base = run_json("profile", "3,-5,7,9", "--omit-profile")["outputs"]
    for algo in ("naive", "dp", "mitm"):
        got = run_json("profile", "3,-5,7,9", "--omit-profile", "--algorithm", algo)
        assert got["outputs"] == base


USAGE_ERRORS = [  # each must exit 2
    ("profile", "1,,2"),
    ("profile", "abc"),
    ("profile", "1/0"),
    ("profile", "1,1", "--levy-radius", "1/0"),
    ("profile", "1,1", "--levy-radius", "x"),
    ("verify", "moment", "--s", "1"),  # --k missing
    ("verify", "second-moment", "--k", "2"),
    ("construct", "block", "--n", "5", "--k", "2"),
    # the exact path never reads --samples, so the flag is checked where it is parsed
    ("verify", "supratio", "--weights", "1,2", "--k", "2", "--samples", "0"),
    # the sweep runs, then its CSV cannot be written
    ("frontier", "--n", "2", "--max-weight", "1", "--output", "{tmp}/missing/f.csv"),
]


def test_usage_errors_exit_2(tmp_path):
    for args in USAGE_ERRORS:
        res = run_cli(*(str(a).format(tmp=tmp_path) for a in args))
        assert res.returncode == 2 and res.stdout == "", args
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    # exact decimal strings are rationals, same as 1/2
    assert run_json("profile", "1,0.5")["parameters"]["scaled_weights"] == [2, 1]


CAP_HITS = [  # one input per limit; each must exit 1
    ("profile", "1,1,1,1,1", "--algorithm", "naive", "--naive-cap", "4"),
    ("profile", "1,2,3", "--algorithm", "dp", "--dp-cap", "5"),
    # n = 4 is within the cap; its 4 * 4 half-sum pairs exceed 2^(4/2)
    ("profile", "1,2,4,8", "--algorithm", "mitm", "--mitm-cap", "4"),
    ("verify", "injectivity", "--weights", "1,2,2,3,4,5", "--k", "3",
     "--enum-budget", "50"),
    ("frontier", "--n", "3", "--max-weight", "4", "--enum-budget", "10"),
    # the sweep priced by what it walks: 4.5e6 leaves, 2e6 internal tables of
    # up to 500 KB, 60000 prefixes of 7501-byte tables
    ("frontier", "--n", "2", "--max-weight", "3000"),
    ("frontier", "--n", "2000", "--max-weight", "1"),
    ("frontier", "--n", "60000", "--max-weight", "0"),
    # (k+1)^n beyond the budget moves supratio to Monte Carlo; the n cap refuses
    ("verify", "supratio", "--weights", "1,2,3,5,8", "--k", "6",
     "--enum-budget", "1000", "--naive-cap", "4"),
    # Monte Carlo work 10^5 samples * n = 12 * |A| = 4096 beyond its limit
    ("verify", "supratio", "--weights", ",".join(str(2**i) for i in range(12)),
     "--k", "3"),
    # Monte Carlo work 10^5 samples * n = 2 * |A| = 4 * 142 limbs of k = 3000
    ("verify", "supratio", "--weights", "1,2", "--k", "3000"),
    # its products, 10^5 samples * n = 2 * 470 limbs of k = 9999, are within
    # the limit, but not with 32 units for each of the 20 blake2b blocks a draw takes
    ("verify", "supratio", "--weights", "0,0", "--k", "9999"),
    # within the limit by products and draws, 45000 * 2 * 1110, but not with
    # 470^1.6 more per sample for squaring each sup
    ("verify", "supratio", "--weights", "0,0", "--k", "9999", "--samples", "45000"),
    # a sup-ratio bound beyond the float range
    ("verify", "supratio", "--weights", "1,2,4", "--k", "1", "--c", "1000"),
    # a 2^60000-slot table, refused before its weights are built
    ("construct", "block", "--n", "60000", "--k", "1"),
    # a 2^3000-slot table, refused by profile: its span is named by bit length
    ("construct", "block", "--n", "3000", "--k", "1"),
    # 4000 ones: a span within dp_cap, but 4000 * 501 * 4001 table bytes moved
    ("construct", "block", "--n", "4000", "--k", "4000"),
    # every algorithm refuses 2^0..2^47, meet in the middle after 2^24 pairs
    ("construct", "block", "--n", "48", "--k", "1"),
    # 10^7 ones, 150 units an entry, refused before the vector is built
    ("construct", "block", "--n", "10000000", "--k", "10000000"),
    # k * |B| = 10^9 rounds of enumeration work, refused before the first
    ("verify", "partition", "--weights", "1", "--k", "1000000000"),
    # integers too long to print in decimal
    ("profile", "1e5000"),
    ("profile", "1", "--levy-radius", "1e999999"),
    # the ratio moment priced from k and s: many terms, then one huge gcd
    ("verify", "moment", "--k", "100000", "--s", "1"),
    ("verify", "moment", "--k", "5", "--s", "3000000"),
    ("verify", "second-moment", "--k", "20000"),
    # a Bin(k) binomial row of (k+1)^2 bits, refused before it is built
    ("verify", "supratio", "--weights", "1,2", "--k", "99999999"),
    ("verify", "tail", "--k", "20000"),
    ("verify", "max-ratio", "--k", "20000"),
    ("verify", "density", "--weights", "1", "--k", "20000"),
    # the fiber's tau is read from the sums the fiber enumerates, so the
    # 2^22 cube-set sums are refused before any profile is built
    ("verify", "density", "--weights", ",".join(str(2**i) for i in range(22)),
     "--k", "1"),
    # exp(10 pi s^2 / k) has a 4.5e9-bit endpoint, priced before its Fraction
    ("verify", "moment", "--k", "1", "--s", "10000"),
    ("verify", "density", "--weights", "1", "--k", "1000000000"),
    # the 2^n subset sums behind a cube set, priced before they are built
    *(("verify", name, "--weights", ",".join(str(2**i) for i in range(n)), "--k", "1")
      for name in ("injectivity", "partition", "supratio") for n in (22, 24)),
]


def test_caps_exit_1():
    for args in CAP_HITS:  # the frontier is refused before it writes its CSV
        t0 = time.monotonic()
        res = run_cli(*args)
        elapsed = time.monotonic() - t0
        assert res.returncode == 1 and res.stdout == "", args
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
        assert len(res.stderr.rstrip("\n")) <= 240, args  # no wall of digits
        assert elapsed < 5, (args, elapsed)  # refused up front, not after the work


def test_settable_value_counts():
    # each subcommand's flags and positionals, the run options once, and the
    # environment variables: a new knob has to change these pins on purpose
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    run = {a.dest for a in parser._actions if a is not sub and a.dest != "help"}
    own = [{a.dest for a in p._actions if a.dest != "help"} - run
           for p in sub.choices.values()]
    envs = {env for *_, env in cli._SETTINGS if env}
    assert len(run) + sum(map(len, own)) + len(envs) == 30
    assert len(cli._SETTINGS) == 7
    assert len(SweepConfig._fields) == 3


def test_source_size_counts():
    # the lines of the package's modules and its public names: growth has to
    # change these pins on purpose
    src = Path(anticonc.__file__).parent
    assert sum(len(p.read_text().splitlines()) for p in src.glob("*.py")) == 2243
    assert len(anticonc.__all__) == 62


def _loaded_after(statement):
    """The modules a fresh interpreter holds after running the statement."""
    code = (f"import sys\n{statement}\nloaded = sorted(sys.modules)\n"
            "import json; print(json.dumps(loaded), file=sys.stderr)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stderr.splitlines()[-1]))


def test_cli_import_loads_no_process_pool(tmp_path):
    # the package and the CLI load no layer until a command runs; a command
    # loads only the layers it runs, and no command loads dataclasses
    layers = {f"anticonc.{m}" for m in ("frontier", "lemmas", "numerics", "subsetsum",
                                        "sumsets")}
    heavy = {"dataclasses", "concurrent.futures.process", "multiprocessing", "mpmath"}
    for statement in ("import anticonc", "import anticonc.cli"):
        # nor contextvars: the first work_limit block makes the scope's variable
        assert not _loaded_after(statement) & (layers | heavy | {"contextvars"}), statement
    run = "import anticonc.cli; anticonc.cli.main({})"
    loaded = _loaded_after(run.format(["profile", "1,2,3,5"]))
    assert loaded & (layers | heavy) == {"anticonc.subsetsum"}
    loaded = _loaded_after(run.format(["verify", "tail", "--k", "8"]))
    assert loaded & (layers | heavy) == {"anticonc.lemmas", "anticonc.numerics"}
    # only the Monte Carlo draws hash, and hashlib loads OpenSSL
    assert not loaded & {"hashlib", "_hashlib"}
    frontier = ["frontier", "--n", "3", "--max-weight", "4", "--output", str(tmp_path / "f.csv")]
    loaded = _loaded_after(run.format(frontier))
    assert loaded & (layers | heavy) == {"anticonc.frontier", "anticonc.subsetsum"}


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_verify_density_tau_is_concentration_tau(w):
    weights = "--weights=" + ",".join(map(str, w))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "density", weights, "--k", "1"]) == 0
    tau = json.loads(out.getvalue())["parameters"]["tau"]
    assert tau == concentration(profile(tuple(w))).tau


VALID_FLAGS = {"weights": "1,1,2", "k": "2", "s": "1"}


@pytest.mark.parametrize("name", sorted(cli.VERIFY))
def test_verify_missing_required_flag_exits_2(name, capsys):
    required, _ = cli.VERIFY[name]
    for missing in required:
        argv = ["verify", name]
        for flag in required:
            if flag != missing:
                argv += [f"--{flag}", VALID_FLAGS[flag]]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --{missing} is required\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_c_refused(bad, tmp_path):
    for args in (
        ("verify", "supratio", "--weights", "1,2", "--k", "3"),
        ("verify", "theorem", "--weights", "1,2,4"),
        ("frontier", "--n", "2", "--max-weight", "1", "--output", tmp_path / "f.csv"),
    ):
        res = run_cli(*args, "--c", bad)
        assert res.returncode == 2 and res.stdout == ""
    c = float(bad)
    with pytest.raises(BadParams):
        check_sup_ratio_bound(unique_preimages((1, 2)), 3, c)
    with pytest.raises(BadParams):
        theorem_check(concentration(profile((1, 2, 4))), c)
    with pytest.raises(BadParams):
        audit(sweep_points(SweepConfig(n=2, max_weight=1)), c)


def test_verify_injectivity():
    rec = run_json("verify", "injectivity", "--weights", "1,1,2", "--k", "1")
    out = rec["outputs"]
    assert out["holds"] is True and out["witness"] is None
    assert out["a_size"] == 5 and out["b_size"] == 2 and out["tau"] == 1


def test_verify_density():
    rec = run_json(
        "verify", "density", "--weights", "1,1,1", "--k", "2", "--tau", "1"
    )
    out = rec["outputs"]
    assert out["ratio"] == "64/9" and out["bound"] == "64/9"
    assert out["holds"] is True and out["b_size"] == 3
    # empty fiber is a usage error
    assert (
        run_cli(
            "verify", "density", "--weights", "1,1,1", "--k", "2", "--tau", "9"
        ).returncode
        == 2
    )


def test_verify_partition():
    out = run_json("verify", "partition", "--weights", "1,1,2", "--k", "2")[
        "outputs"
    ]
    assert out["total"] == "1/1" and out["holds"] is True


def test_verify_moment():
    rec = run_json("verify", "moment", "--k", "51", "--s", "1")
    out = rec["outputs"]
    assert out["verdict"] == "holds" and out["in_hypothesis"] is True
    assert out["lhs"] == f"{2**51 - 1}/{2**51}"
    out = run_json("verify", "moment", "--k", "50", "--s", "1")["outputs"]
    assert out["in_hypothesis"] is False
    # a precision cap below the start precision still decides
    out = run_json("verify", "moment", "--k", "3", "--s", "1", "--precision-bits", "64")
    assert out["outputs"]["verdict"] == "holds"
    assert out["parameters"]["config"]["precision_cap_bits"] == 64
    # too few bits to place k/(16s) against pi: reported as null, and the
    # verdict decides the exit code
    out = run_json("verify", "moment", "--k", "50", "--s", "1", "--precision-bits", "4")
    assert out["outputs"]["in_hypothesis"] is None
    assert out["outputs"]["verdict"] == "holds"
    out = run_json("verify", "moment", "--k", "100", "--s", "2", "--precision-bits", "1",
                   expect=1)
    assert out["outputs"]["in_hypothesis"] is None
    assert out["outputs"]["verdict"] == "undecidable"


def test_verify_scalar_lemmas():
    assert run_json("verify", "second-moment", "--k", "3")["outputs"]["lhs"] == "37/24"
    assert run_json("verify", "tail", "--k", "100")["outputs"]["verdict"] == "holds"
    assert run_json("verify", "max-ratio", "--k", "8")["outputs"]["verdict"] == "holds"


def test_verify_supratio_exact_and_mc():
    out = run_json("verify", "supratio", "--weights", "1,2", "--k", "3")["outputs"]
    assert out["method"] == "exact" and out["std_error"] == 0.0
    assert "exact" in out and out["holds"] is True

    args = (
        "verify", "supratio", "--weights", "1,2", "--k", "3",
        "--enum-budget", "2", "--samples", "500", "--seed", "9",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["outputs"]["method"] == "mc"


def test_verify_theorem():
    out = run_json("verify", "theorem", "--weights", "1,2,4", "--c", "20")["outputs"]
    assert out["holds"] is True and out["rho"] == "1/8"


def test_frontier_golden_csv(tmp_path):
    csv_path = tmp_path / "f.csv"
    rec = run_json(
        "frontier", "--n", "2", "--max-weight", "1", "--output", csv_path
    )
    out = rec["outputs"]
    assert out["candidates"] == 3 and out["frontier_weights"] == [[0, 0], [1, 1]]
    assert out["max_delta_over_eps"] == pytest.approx(math.log(3) / math.log(2))
    assert out["argmax_delta_over_eps"] == [1, 1]
    assert out["exceeding_2eps"] == []

    text = csv_path.read_text()
    e = math.log(2) / 2
    d11 = math.log(3) / 2
    expected = "\n".join(
        [
            "n,weights,rho_num,rho_den,range_size,"
            "epsilon,delta,delta_over_eps,delta_over_sqrt_eps",
            "2,0;0,1,1,1,0,0,1,0",
            f"2,0;1,1,2,2,{f12(e)},{f12(e)},1,{f12(e / math.sqrt(e))}",
            f"2,1;1,1,2,3,{f12(e)},{f12(d11)},{f12(d11 / e)},{f12(d11 / math.sqrt(e))}",
        ]
    )
    assert text == expected + "\n"
    assert out["csv_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    # frozen golden row for (1,1)
    assert (
        "2,1;1,1,2,3,0.34657359028,0.549306144334,1.58496250072,0.93307536683"
        in text
    )


def test_frontier_reruns_and_workers_identical(tmp_path):
    out1, out2, out4 = (tmp_path / f"w{i}.csv" for i in (1, 2, 4))
    r1 = run_cli("frontier", "--n", "3", "--max-weight", "3", "--output", out1)
    r2 = run_cli("frontier", "--n", "3", "--max-weight", "3", "--output", out2)
    r4 = run_cli(
        "frontier", "--n", "3", "--max-weight", "3", "--workers", "4",
        "--output", out4,
    )
    assert r1.returncode == r2.returncode == r4.returncode == 0
    assert out1.read_bytes() == out2.read_bytes() == out4.read_bytes()
    j1, j4 = json.loads(r1.stdout), json.loads(r4.stdout)
    del j1["parameters"]["workers"], j4["parameters"]["workers"]
    j1["outputs"]["csv_path"] = j4["outputs"]["csv_path"] = None
    assert j1 == j4


def test_frontier_csv_format_stdout(tmp_path):
    csv_path = tmp_path / "f.csv"
    res = run_cli(
        "frontier", "--n", "2", "--max-weight", "1", "--output", csv_path,
        "--format", "csv",
    )
    assert res.returncode == 0
    assert res.stdout == csv_path.read_text()
    assert res.stdout.startswith("n,weights,")


def test_frontier_plot_data(tmp_path):
    csv_path, plot = tmp_path / "f.csv", tmp_path / "p.dat"
    rec = run_json(
        "frontier", "--n", "2", "--max-weight", "1", "--output", csv_path,
        "--plot-data", plot,
    )
    lines = plot.read_text().splitlines()
    assert lines[0] == "# epsilon delta"
    assert len(lines) == 1 + rec["outputs"]["candidates"]
    assert lines[1] == "0 0"


def test_construct_block():
    rec = run_json("construct", "block", "--n", "4", "--k", "2")
    out = rec["outputs"]
    assert out["weights"] == [1, 1, 3, 3]
    assert out["predicted_rho"] == out["measured_rho"] == "1/4"
    assert out["predicted_range_size"] == out["measured_range_size"] == 9
    assert out["match"] is True
    want = math.log(3) / (2 * math.log(2) - math.log(2))
    assert out["delta_over_eps_theory"] == pytest.approx(want)


def test_text_format_and_flag_position():
    before = run_cli("--format", "text", "profile", "1,1")
    after = run_cli("profile", "1,1", "--format", "text")
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout
    assert "outputs.rho: 1/2" in before.stdout
    assert before.stdout.splitlines()[0].startswith("command: profile")


def _emitted(record, output_format, capsys):
    cli.emit(record, argparse.Namespace(output_format=output_format))
    return capsys.readouterr().out


def test_one_value_format_in_json_and_text(capsys):
    values = {
        "whole": Fraction(3),
        "negative": Fraction(-5, 7),
        "verdict": Verdict.UNDECIDABLE,
        "nested": ((Fraction(-1, 2), 4), (Verdict.FAILS, ())),
    }
    shown = json.loads(_emitted({"v": values}, "json", capsys))["v"]
    assert shown == {"whole": "3/1", "negative": "-5/7", "verdict": "undecidable",
                     "nested": [["-1/2", 4], ["fails", []]]}
    # text writes a scalar bare and a tuple as its JSON list
    want = [f"v.{key}: {value if isinstance(value, str) else json.dumps(value)}"
            for key, value in sorted(shown.items())]
    assert _emitted({"v": values}, "text", capsys).splitlines() == want
    for output_format in ("json", "text"):
        for unknown in (object(), (1, {2})):
            with pytest.raises(TypeError):
                cli.emit({"v": unknown}, argparse.Namespace(output_format=output_format))
    assert capsys.readouterr().out == ""


def test_timing_opt_in():
    rec = run_json("profile", "1,1", "--omit-profile")
    assert rec["timing"] is None
    rec = run_json("profile", "1,1", "--omit-profile", "--timing")
    assert isinstance(rec["timing"]["elapsed_s"], float)


def test_precision_env_and_flag_precedence(tmp_path):
    rec = run_json(
        "profile", "1,1", env_extra={"ANTICONC_PRECISION_BITS": "512"}
    )
    assert rec["parameters"]["config"]["precision_cap_bits"] == 512
    rec = run_json(
        "profile", "1,1", "--precision-bits", "1024",
        env_extra={"ANTICONC_PRECISION_BITS": "512"},
    )
    assert rec["parameters"]["config"]["precision_cap_bits"] == 1024
    # flag > env > file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision_bits = 300\n")
    for extra, want in (((), 300), (("--precision-bits", "1024"), 1024)):
        rec = run_json("profile", "1,1", "--config", cfg, *extra)
        assert rec["parameters"]["config"]["precision_cap_bits"] == want
    for extra, want in (((), 512), (("--precision-bits", "1024"), 1024)):
        rec = run_json(
            "profile", "1,1", "--config", cfg, *extra,
            env_extra={"ANTICONC_PRECISION_BITS": "512"},
        )
        assert rec["parameters"]["config"]["precision_cap_bits"] == want
    res = run_cli("profile", "1,1", env_extra={"ANTICONC_PRECISION_BITS": "x"})
    assert res.returncode == 2


def test_precision_env_reaches_the_comparison():
    # the variable sets the cap that cmp_bound reads, not only the printed
    # config: at 4 bits 50/16 cannot be placed against pi
    argv = ("verify", "moment", "--k", "50", "--s", "1")
    by_env = run_cli(*argv, env_extra={"ANTICONC_PRECISION_BITS": "4"})
    by_flag = run_cli(*argv, "--precision-bits", "4")
    assert by_env.returncode == by_flag.returncode == 0
    assert by_env.stdout == by_flag.stdout and by_env.stderr == ""
    assert json.loads(by_env.stdout)["outputs"]["in_hypothesis"] is None
    assert run_json(*argv)["outputs"]["in_hypothesis"] is False


# two non-default values for every run setting, keyed by config-file key
FILE_SETTINGS = dict(seed=11, precision_bits=333, naive_cap=21, dp_cap=54321,
                     mitm_cap=33, enum_budget=77, format="text")
FLAG_SETTINGS = dict(seed=12, precision_bits=444, naive_cap=22, dp_cap=65432,
                     mitm_cap=34, enum_budget=88, format="text")


def text_settings(stdout):
    """The run settings a profile record shows; a JSON record has no "seed: "
    line, so this fails unless format=text took effect."""
    lines = dict(line.split(": ", 1) for line in stdout.splitlines())
    shown = {"format": "text", "seed": int(lines["seed"])}
    for attr, key, *_ in cli._SETTINGS:
        if f"parameters.config.{attr}" in lines:
            shown[key] = int(lines[f"parameters.config.{attr}"])
    return shown


def test_config_file(tmp_path):
    keys = {key for _, key, *_ in cli._SETTINGS}
    assert set(FILE_SETTINGS) == set(FLAG_SETTINGS) == keys
    every = tmp_path / "every.cfg"
    every.write_text("".join(f"{k} = {v}\n" for k, v in FILE_SETTINGS.items()))
    flags = [a for k, v in FLAG_SETTINGS.items() for a in (f"--{k.replace('_', '-')}", v)]
    res = run_cli("profile", "1,1", "--omit-profile", "--config", every)
    assert res.returncode == 0 and text_settings(res.stdout) == FILE_SETTINGS
    res = run_cli("profile", "1,1", "--omit-profile", *flags)
    assert res.returncode == 0 and text_settings(res.stdout) == FLAG_SETTINGS
    res = run_cli("profile", "1,1", "--omit-profile", "--config", every, *flags)
    assert res.returncode == 0 and text_settings(res.stdout) == FLAG_SETTINGS

    cfg = tmp_path / "run.cfg"
    cfg.write_text("# caps\nnaive_cap = 4\nformat = text\n")
    res = run_cli(
        "profile", "1,1,1,1,1", "--algorithm", "naive", "--config", cfg
    )
    assert res.returncode == 1  # naive cap from file bites

    res = run_cli("profile", "1,1", "--config", cfg, "--omit-profile")
    assert res.returncode == 0 and res.stdout.startswith("command: profile")

    # flags outrank the file
    res = run_cli(
        "profile", "1,1", "--config", cfg, "--naive-cap", "24",
        "--format", "json", "--omit-profile",
    )
    assert json.loads(res.stdout)["parameters"]["config"]["naive_cap"] == 24

    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    assert run_cli("profile", "1,1", "--config", bad).returncode == 2
    assert run_cli("profile", "1,1", "--config", tmp_path / "nope").returncode == 2
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("naive_cap 4\n")
    res = run_cli("profile", "1,1", "--config", noeq)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"error: {noeq}:1: expected key=value\n"


def test_weights_may_start_with_a_negative_entry(capsys):
    # argparse takes "-1,2" for an option unless the parser's negative-number
    # pattern matches it; the pattern is private argparse API, so it is pinned here
    for argv, scaled in ((["profile", "-1,2"], [-1, 2]), (["profile", "-1/2,1"], [-1, 2]),
                         (["verify", "theorem", "--weights", "-3,1"], None)):
        assert cli.main(argv) == 0, argv
        params = json.loads(capsys.readouterr().out)["parameters"]
        assert params.get("scaled_weights") == scaled and argv[-1] in params.values()
    assert cli.main(["verify", "tail", "--k", "-1"]) == 2
    assert capsys.readouterr().err == "error: k must be >= 1\n"


def test_csv_format_rejected_outside_frontier():
    assert run_cli("profile", "1,1", "--format", "csv").returncode == 2


# The CLI contract over generated argv for all four subcommands: every input
# exits 0, 1 or 2, raises nothing, writes at most one stderr line and ends
# within CONTRACT_WALL_S.  Flag values come from one menu; the limit settings
# leave out 10^9, since raising a limit to 10^9 asks for that much work.
MENU = ("0", "-1", "3", "1000000000", "1e5000", "1/3", "")
LIMIT_MENU = tuple(v for v in MENU if v != "1000000000")
LIMITS = ("--precision-bits", "--naive-cap", "--dp-cap", "--mitm-cap", "--enum-budget")
# the slowest inputs here, each at a default work limit, took about 12 s
CONTRACT_WALL_S = 30


def _flags(names, values=st.sampled_from(MENU)):
    """Each named flag either left out or given one drawn value."""
    return st.fixed_dictionaries({}, optional={name: values for name in names}).map(
        lambda given: [x for name, v in given.items() for x in (name, v)]
    )


_weights = st.lists(st.sampled_from(MENU), min_size=1, max_size=12).map(",".join)
_ARGV = {
    "profile": st.tuples(
        st.just(["profile"]), _weights.map(lambda w: [w]), _flags(["--levy-radius"]),
        st.sampled_from([[], ["--algorithm", "naive"], ["--algorithm", "dp"],
                         ["--algorithm", "mitm"]]),
        st.sampled_from([[], ["--omit-profile"]]),
    ),
    "verify": st.tuples(
        st.sampled_from(sorted(cli.VERIFY)).map(lambda name: ["verify", name]),
        _flags(["--weights"], _weights),
        _flags(["--k", "--s", "--tau", "--c", "--samples"]),
    ),
    "frontier": st.tuples(
        st.just(["frontier"]), _flags(["--n", "--max-weight", "--workers", "--c"]),
        st.sampled_from([[], ["--plot-data", "{tmp}/p.dat"]]),
    ),
    "construct": st.tuples(st.just(["construct", "block"]), _flags(["--n", "--k"])),
}
_run_options = st.tuples(
    _flags(["--seed"]), _flags(LIMITS, st.sampled_from(LIMIT_MENU)),
    st.sampled_from([[], ["--format", "text"], ["--format", "csv"], ["--format", ""]]),
    st.sampled_from([[], ["--timing"]]),
)


@given(
    command=st.sampled_from(sorted(_ARGV)).flatmap(_ARGV.get),
    options=_run_options,
)
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_contract(command, options, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    argv = [a.format(tmp=tmp) for part in command for a in part]
    if argv[0] == "frontier":
        argv += ["--output", f"{tmp}/f.csv"]
    argv += [a for part in options for a in part]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad usage this way
            code = exc.code
    elapsed = time.monotonic() - t0
    assert code in (0, 1, 2), argv
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert elapsed < CONTRACT_WALL_S, (argv, elapsed)
