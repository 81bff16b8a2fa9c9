"""anticonc benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  Each op starts when the previous one
returns, and the loop runs whole passes over the workload's inputs until
``--seconds`` have elapsed.  Every answer is checked against ``pins.json``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with times
corrected for the host's speed (HostSpeed, and bench/README.md).
``--trace 1`` runs each pass untraced and then traced (spans.py), and
prints the per-layer metrics, including the tracing overhead.
The last line of standard output is one JSON object with the result; a
fuller record goes to ``bench/results/``.

``--pin`` re-runs every pool member once and rewrites ``pins.json``.  Do it
only when a change of answers is intended and explained.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
RESULTS = HERE / "results"

SETUP_PROBES = 7
TAIL_BEYOND = 10  # op_tail is the highest percentile with this many samples beyond it

# End-to-end times are corrected for the host's speed at the moment they
# were taken.  The host (a few vCPUs of a shared machine) changes speed by a
# quarter and more, within seconds and for minutes at a time, so raw times
# of the same code spread past any useful bound.  Every SAMPLE_EVERY_S of
# wall time a timer signal times a fixed reference loop; each op time is
# scaled by REFERENCE_NS over the median reference time of the samples taken
# within WINDOW_NS of the op.  Times then read as on a host where the
# reference loop takes 4 ms.  The reference loop's own time is excluded from
# the op it interrupted.  Raw times are printed beside the corrected ones.
REFERENCE_NS = 4_000_000
SAMPLE_EVERY_S = 0.05
WINDOW_NS = 250_000_000

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (the benchmark's own module, next to this file)


def import_anticonc():
    """Import the package from this checkout's src/, refusing any other copy."""
    if not (SRC / "anticonc" / "__init__.py").is_file():
        raise SystemExit(f"error: no anticonc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import anticonc
    import anticonc.cli  # the package does not import its CLI itself

    if Path(anticonc.__file__).resolve().parent != SRC / "anticonc":
        raise SystemExit(f"error: imported anticonc from {anticonc.__file__}")
    return anticonc


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


# -- statistics -------------------------------------------------------------


def order_stat(samples, rank: int) -> float:
    """The rank-th smallest (1-based) of weighted samples [(value, weight)]."""
    seen = 0
    for value, weight in samples:
        seen += weight
        if seen >= rank:
            return value
    raise ValueError("rank beyond sample count")


def latency_summary(samples) -> dict:
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    p50 = (order_stat(samples, (total + 1) // 2) + order_stat(samples, total // 2 + 1)) / 2
    if total > TAIL_BEYOND:
        rank = total - TAIL_BEYOND
        tail, pct = order_stat(samples, rank), 100.0 * rank / total
    else:
        tail, pct = samples[-1][0], 100.0
    return {"p50": p50, "tail": tail, "tail_percentile": pct, "samples": total}


# -- host speed -------------------------------------------------------------


def reference_loop():
    """Fixed interpreter work independent of anticonc: a list built and
    sorted, and a blake2b chain.  Of the candidates tried (dict and int
    arithmetic, object allocation, Fraction sums, these), its time followed
    the host-speed swings of every workload most closely."""
    s = sorted([(i * 7919) % 10007 for i in range(20000)])
    h = b"x" * 100
    for _ in range(2000):
        h = hashlib.blake2b(h, digest_size=8).digest()
    return s[5], h


def speed_factor() -> float:
    """REFERENCE_NS over the reference loop's time now."""
    t0 = time.perf_counter_ns()
    reference_loop()
    return REFERENCE_NS / (time.perf_counter_ns() - t0)


class HostSpeed:
    """Samples the host's speed while it is entered: a SIGALRM handler runs
    the reference loop every SAMPLE_EVERY_S.  ``paused_ns`` is the time spent
    in the handler, for run_op to take out of op times."""

    def __init__(self):
        self.times: list = []  # sample midpoints, ns, ascending
        self.factors: list = []
        self.paused_ns = 0

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        reference_loop()
        t1 = time.perf_counter_ns()
        self.times.append((t0 + t1) // 2)
        self.factors.append(REFERENCE_NS / (t1 - t0))
        self.paused_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Median speed factor of the samples within WINDOW_NS of
        [start_ns, end_ns]."""
        lo = bisect.bisect_left(self.times, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.times, end_ns + WINDOW_NS)
        if lo == hi:
            raise RuntimeError("no host-speed sample near an op")
        return statistics.median(self.factors[lo:hi])


# -- the closed loop --------------------------------------------------------


class Record:
    def __init__(self):
        self.passes: list = []  # per timed pass: [(op ns, op start ns, ops)]
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}  # key -> first reason
        self.known_defect_failures = 0

    def add(self, item, n_ops, status):
        self.attempted += n_ops
        if status != "ok":
            self.failed += n_ops
            self.failures.setdefault(item.key, status)
            if item.expect_exit_in is not None:
                self.known_defect_failures += n_ops


def run_op(wl, item, tracer=None, host=None):
    """The op's result or error, its time in ns less any host-speed
    sampling that interrupted it, and its start."""
    result, error = None, None
    if tracer is not None:
        tracer.active = True
    paused = host.paused_ns if host else 0
    t0 = time.perf_counter_ns()
    try:
        if tracer is not None:
            with tracer.span("bench.op"):
                result = wl.run(item)
        else:
            result = wl.run(item)
    except Exception as exc:  # any raise is a failed op; the loop goes on
        error = exc
    elapsed = time.perf_counter_ns() - t0
    if host is not None:
        elapsed -= host.paused_ns - paused
    if tracer is not None:
        tracer.active = False
    return result, error, elapsed, t0


def run_pass(wl, rec, p, tracer=None, replay=None, timed=True, host=None) -> int:
    """Run pass p, check every answer, and return its op time in ns."""
    timings = []  # (ns, start ns, ops) per op
    for item in wl.pass_items(p):
        if tracer is not None:
            tracer.op += 1
        result, error, elapsed, start = run_op(wl, item, tracer, host)
        if error is not None:
            status = f"raised {type(error).__name__}: {error}"
        else:
            status = wl.check(item, result)
        n_ops = wl.ops(item, result)
        rec.add(item, n_ops, status)
        timings.append((elapsed, start, n_ops))
        del result
        if replay is not None:
            replay.drain(tracer)
    if timed:
        rec.passes.append(timings)
    return sum(ns for ns, _, _ in timings)


def measure(wl, rec, seconds, host=None):
    """One untimed warm-up pass (p = -1, other pool members than pass 0),
    so allocator growth and first-call costs stay out of the first measured
    pass; then whole passes until ``seconds`` elapse, at least one."""
    run_pass(wl, rec, -1, timed=False, host=host)
    start = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - start < seconds:
        run_pass(wl, rec, p, host=host)
        p += 1


# -- end-to-end run ---------------------------------------------------------


def probe_setup(workload: str, seed: int) -> tuple:
    """Import plus input generation, timed in a fresh interpreter: the raw
    time and the speed factor measured right after it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    raw, factor = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(factor)


def end_to_end(wl, args) -> tuple:
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    rec = Record()
    with HostSpeed() as host:
        measure(wl, rec, args.seconds, host)
    # (corrected ns, ops) per op, per pass
    passes = [[(ns * host.factor(t0, t0 + ns), n) for ns, t0, n in ops] for ops in rec.passes]
    pass_ns = [sum(ns for ns, _ in ops) for ops in passes]
    pass_ops = [sum(n for _, n in ops) for ops in passes]
    raw_pass_ns = [sum(ns for ns, _, _ in ops) for ops in rec.passes]
    if wl.batch:  # an op's latency is not observable, only its pass's mean
        latencies = [(ns / n, n) for ns, n in zip(pass_ns, pass_ops)]
    else:
        latencies = [(ns / n, n) for ops in passes for ns, n in ops]
    lat = latency_summary(latencies)
    metrics = {
        "setup_s": statistics.median(raw * factor for raw, factor in probes),
        "wall_s": statistics.median(pass_ns) / 1e9,
        "ops_per_s": statistics.median(n / ns for n, ns in zip(pass_ops, pass_ns)) * 1e9,
        "op_p50_ms": lat["p50"] / 1e6,
        "op_tail_ms": lat["tail"] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": 1 - rec.failed / rec.attempted,
    }
    extra = {
        "op_tail_percentile": lat["tail_percentile"],
        "op_samples": lat["samples"],
        "fail_ratio": rec.failed / rec.attempted,
        "passes": len(pass_ns),
        "raw_setup_s": statistics.median(raw for raw, _ in probes),
        "raw_wall_s": statistics.median(raw_pass_ns) / 1e9,
        "speed_samples": len(host.factors),
        "speed_factor_median": statistics.median(host.factors),
        "speed_factor_quartiles": statistics.quantiles(host.factors, n=4),
        "measured_s": sum(raw_pass_ns) / 1e9,
        "pass_s": [ns / 1e9 for ns in pass_ns],
        "raw_pass_s": [ns / 1e9 for ns in raw_pass_ns],
        "op_ms": [(ns / 1e6, n) for ns, n in latencies],
    }
    return rec, metrics, extra


# -- traced run -------------------------------------------------------------

KERNELS = ("naive", "dp", "mitm")


def _distinct_sums(ws) -> int:
    sums = {0}
    for x in ws:
        sums |= {s + x for s in sums}
    return len(sums)


def kernel_cells(kind: str, w) -> int:
    """Work of one kernel call: 2^n, n*(span+1), or |L|*|R| distinct half sums."""
    n = len(w)
    if kind == "naive":
        return 1 << n
    if kind == "dp":
        return n * (sum(abs(x) for x in w) + 1)
    return _distinct_sums(w[: n // 2]) * _distinct_sums(w[n // 2:])


class Replay:
    """Per-layer quantities the spans cannot see, computed after each op
    with tracing paused: kernel work, SumProfile rebuilds, Monte Carlo draws,
    interval precision, and argument parsing."""

    RECORDED = (
        "subsetsum.profile_naive",
        "subsetsum.profile_dp",
        "subsetsum.profile_mitm",
        "lemmas.sup_ratio_mc",
        "numerics.interval",
        "cli.main",
    )

    def __init__(self, ac):
        self.ac = ac
        self.cells = dict.fromkeys(KERNELS, 0)
        self.build_ns = 0
        self.draw_ns = 0
        self.mc_samples = 0
        self.bits_max = 0
        self.parse_ns = 0
        self._mc_sig = inspect.signature(ac.lemmas.sup_ratio_mc)

    def drain(self, tracer):
        SumProfile = self.ac.subsetsum.SumProfile
        for kind in KERNELS:
            calls = tracer.records[f"subsetsum.profile_{kind}"]
            for args, _, result, _ in calls:
                if result is None:
                    continue
                self.cells[kind] += kernel_cells(kind, tuple(args[0]))
                counts = result.as_dict()
                t0 = time.perf_counter_ns()
                SumProfile.from_counts(result.n, counts)
                self.build_ns += time.perf_counter_ns() - t0
            calls.clear()
        draw = self.ac.lemmas._binomial_draw
        for args, kwargs, result, _ in tracer.records["lemmas.sup_ratio_mc"]:
            if result is None:
                continue
            a = self._mc_sig.bind(*args, **kwargs).arguments
            n, k, seed = a["A"].n, a["k"], a["seed"]
            t0 = time.perf_counter_ns()
            for t in range(a["samples"]):
                for i in range(n):
                    draw(seed, t, i, k)
            self.draw_ns += time.perf_counter_ns() - t0
            self.mc_samples += a["samples"]
        tracer.records["lemmas.sup_ratio_mc"].clear()
        for args, _, _, _ in tracer.records["numerics.interval"]:
            self.bits_max = max(self.bits_max, args[1])
        tracer.records["numerics.interval"].clear()
        for args, _, _, _ in tracer.records["cli.main"]:
            sink = io.StringIO()
            t0 = time.perf_counter_ns()
            with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
                try:
                    self.ac.cli.build_parser().parse_args(args[0])
                except SystemExit:
                    pass
            self.parse_ns += time.perf_counter_ns() - t0
        tracer.records["cli.main"].clear()


def all_kernels(wl, rec, tracer, replay):
    """Every feasible kernel on each input of one pass; they must agree."""
    ss = wl.ac.subsetsum
    for item in wl.pass_items(0):
        w = item.data[0]
        runs = []
        if len(w) <= ss.DEFAULT_NAIVE_CAP:
            runs.append(ss.profile_naive)
        if sum(abs(x) for x in w) <= ss.DEFAULT_DP_CAPACITY:
            runs.append(ss.profile_dp)
        if len(w) <= ss.DEFAULT_MITM_CAP:
            runs.append(ss.profile_mitm)
        profiles = []
        for fn in runs:
            tracer.op += 1
            tracer.active = True
            try:
                with tracer.span("bench.kernel"):
                    profiles.append(fn(w))
            finally:
                tracer.active = False
            replay.drain(tracer)
        agree = all(p == profiles[0] for p in profiles[1:])
        rec.add(item, 1, "ok" if agree else "kernels disagree")
        profiles.clear()


def pool_speedup(wl) -> float:
    """The n = 7 sweep at one worker against nproc workers, untraced."""
    fr = wl.ac.frontier
    times = []
    for workers in (1, len(os.sched_getaffinity(0))):
        cfg = fr.SweepConfig(n=7, max_weight=workloads.SWEEP_MAX_WEIGHT, workers=workers)
        t0 = time.perf_counter()
        fr.sweep_points(cfg)
        times.append(time.perf_counter() - t0)
    return times[0] / times[1]


def traced(wl, args) -> tuple:
    from spans import LAYERS, Tracer

    rec = Record()
    tracer = Tracer(wl.ac, record=Replay.RECORDED)
    replay = Replay(wl.ac)
    # Untraced and traced runs of the same pass alternate, so both see the
    # same share of the host's slow spells; the difference is the overhead.
    run_pass(wl, rec, -1, timed=False)
    untraced_ns = traced_ns = 0
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        untraced_ns += run_pass(wl, rec, passes)
        tracer.install()
        try:
            traced_ns += run_pass(wl, rec, passes, tracer, replay)
        finally:
            tracer.uninstall()
        passes += 1
    if args.workload == "profile_wide":
        tracer.install()
        try:
            all_kernels(wl, rec, tracer, replay)
        finally:
            tracer.uninstall()
    untraced_s, traced_s = untraced_ns / 1e9, traced_ns / 1e9
    speedup = pool_speedup(wl) if args.workload == "sweep" else 0.0

    busy = tracer.busy_s
    m = {
        "subsetsum.as_weights.self_s": tracer.self_s("subsetsum.as_weights"),
        "subsetsum.sumprofile_build.busy_s": replay.build_ns / 1e9,
        "subsetsum.concentration.busy_s": busy("subsetsum.concentration"),
    }
    for kind in KERNELS:
        b = busy(f"subsetsum.profile_{kind}")
        m[f"subsetsum.kernel.{kind}.busy_s"] = b
        m[f"subsetsum.kernel.{kind}.cells"] = replay.cells[kind]
        m[f"subsetsum.kernel.{kind}.cells_per_s"] = replay.cells[kind] / b if b else 0.0
    mc_busy = busy("lemmas.sup_ratio_mc")
    m.update({
        "subsetsum.levy.busy_s": busy("subsetsum.levy"),
        "frontier.canonical_vectors.busy_s": busy("frontier.canonical_vectors"),
        "frontier.sweep_points.busy_s": busy("frontier.sweep_points"),
        "frontier.audit.busy_s": busy("frontier.audit"),
        "frontier.pool.speedup": speedup,
        "lemmas.sup_ratio_mc.busy_s": mc_busy,
        "lemmas.mc.draw_s": replay.draw_ns / 1e9,
        "lemmas.mc.accumulate_s": mc_busy - replay.draw_ns / 1e9,
        "lemmas.mc.samples_per_s": replay.mc_samples / mc_busy if mc_busy else 0.0,
        "lemmas.sup_ratio_exact.busy_s": busy("lemmas.sup_ratio_exact"),
        "cli.parse.busy_s": replay.parse_ns / 1e9,
        "cli.main.busy_s": busy("cli.main"),
    })
    for fn in ("iterated_sumset", "check_injectivity", "density_ratio_max", "partition_total"):
        m[f"sumsets.{fn}.busy_s"] = busy(f"sumsets.{fn}")
    m["numerics.cmp_bound.busy_s"] = busy("numerics.cmp_bound")
    m["numerics.cmp_bound.bits_max"] = replay.bits_max
    self_s = tracer.layer_self_s()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.errors"] = tracer.errors[layer]
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    m["trace.spans"] = len(tracer.spans) + tracer.dropped

    extra = {
        "passes": passes,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_kept": len(tracer.spans),
    }
    return rec, m, extra, tracer


# -- entry point ------------------------------------------------------------


def environment(load) -> dict:
    import mpmath

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "commit": commit,
        "loadavg_start": list(load),
        "platform": platform.platform(),
    }


def write_pins(anticonc, names):
    pins = load_pins() if PINS.is_file() else {}
    for name in names:
        wl = workloads.WORKLOADS[name](anticonc, 0)
        out = {}
        for item in wl.items():
            try:
                out[item.key] = wl.answer(item, wl.run(item))
            except Exception as exc:  # pinned as the outcome of this commit
                out[item.key] = {"raised": type(exc).__name__}
        pins[name] = out
        print(f"pinned {len(out)} answers for {name}", file=sys.stderr)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    load = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        t0 = time.perf_counter()
        anticonc = import_anticonc()
        workloads.WORKLOADS[args.workload](anticonc, args.seed)
        raw = time.perf_counter() - t0
        print(raw, statistics.median(speed_factor() for _ in range(3)))
        return 0
    anticonc = import_anticonc()
    os.environ.pop("ANTICONC_PRECISION_BITS", None)  # the CLI reads it; pins assume the default
    if args.pin:
        write_pins(anticonc, [args.workload] if args.workload else list(workloads.WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    pins = load_pins().get(args.workload, {})
    wl = workloads.WORKLOADS[args.workload](anticonc, args.seed, pins)
    tracer = None
    if args.trace:
        rec, values, extra, tracer = traced(wl, args)
    else:
        rec, values, extra = end_to_end(wl, args)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(load)
    # Every failure must be the documented known defect for the run to count
    # as correct; the known defect still counts in failed.
    correct = rec.failed == rec.known_defect_failures
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for key, value in extra.items():
        if not isinstance(value, list):
            print(f"# {key}: {value}")
    print(f"# failed/attempted: {rec.failed}/{rec.attempted}")
    for key, reason in sorted(rec.failures.items()):
        print(f"# failed {key}: {reason[:200]}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "extra": extra, "environment": env,
                   "failures": rec.failures, "args": vars(args)}, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
