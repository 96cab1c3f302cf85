"""Run one benchmark workload and report its metrics.

    python3 bench/run.py --workload pyramids --seed 0 --seconds 25 --trace 0

The run is one process on one thread and closed-loop: each op starts when
the previous one has returned.  ``--trace 0`` repeats the workload's round
of ops for about ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes over the round and
reports the per-layer metrics (see ``spans.py``).  Every op's output is checked against
independent oracles and, where recorded, against ``reference.json``; any
failed op makes the exit code 1.  The last line of standard output is one
JSON object; a full result file goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import spans  # noqa: E402  (sibling module; bench/ is sys.path[0])
import workloads as wl  # noqa: E402

# Times are reported in calibrated seconds: wall seconds scaled by this
# over the calibration kernel's median time while they ran (this is the
# kernel's time on a quiet 2-core Xeon VM), so that a machine running slower
# for a while, which on shared hosts comes and goes within seconds, does not
# read as a slower program.
CALIBRATION_REF_S = 0.00104
# While an op runs, the kernel is timed every this many seconds, and this
# many times just before and just after the op.
SAMPLE_EVERY_S = 0.05
EDGE_SAMPLES = 3
# Set-up runs this many times (the first in this process, the rest in fresh
# child processes) and reports the median.
SETUP_SAMPLES = 3
# op_tail_s is the mean time of this many slowest ops of the round.
TAIL_OPS = 3
# Seed of the discarded warm-up op, fixed so set-up time does not depend on
# the run's seed.
WARMUP_SEED = -1

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_success_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, or -O)."""


def import_toricdef():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "toricdef" / "__init__.py").is_file():
        raise BenchError(f"no toricdef sources under {SRC}")
    sys.path.insert(0, str(SRC))
    td = importlib.import_module("toricdef")
    importlib.import_module("toricdef.cli")
    if Path(td.__file__).resolve().parent != (SRC / "toricdef").resolve():
        raise BenchError(f"imported toricdef from {td.__file__}, not from {SRC}")
    return td


def module_caches():
    """Every functools cache in the package, cleared before each op so that
    no op reuses work done for another."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "toricdef" or name.startswith("toricdef."):
            out += [v for v in vars(mod).values() if callable(getattr(v, "cache_clear", None))]
    return out


def setup(workload: str, seed: int):
    """Import, generate the inputs, run one discarded warm-up op; the last
    item is the calibrated time all that took."""

    def work():
        td = import_toricdef()
        ops = wl.round_ops(workload, seed)
        caches = module_caches()
        wl.run_op(td, wl.round_ops(workload, WARMUP_SEED)[0])
        return td, ops, caches

    (td, ops, caches), _, seconds = SpeedClock().run(work)
    for c in caches:
        c.cache_clear()
    return td, ops, caches, seconds


class SpeedClock:
    """Times a call in calibrated seconds.

    While the call runs, a SIGALRM every ``SAMPLE_EVERY_S`` interrupts it to
    time the calibration kernel; the kernel also runs ``EDGE_SAMPLES`` times
    just before and just after the call.  The call's wall time, less the
    time spent in the interrupts, is scaled by ``CALIBRATION_REF_S`` over
    the median kernel time.  The kernel touches nothing the call uses, so it
    tracks only how fast the machine runs during the call; load on shared
    hosts comes and goes within one call, so kernel runs only between calls
    would miss it."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        wl.calibration_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.paused += dt

    def run(self, fn, before=None, after=None):
        """(fn's result, wall seconds, calibrated seconds); the wall time
        includes the interrupts, as an outside clock would see it.
        ``before`` and ``after`` run just outside the timed call."""
        self.samples = []
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        if before:
            before()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            if after:
                after()
            signal.signal(signal.SIGALRM, previous)
        paused = self.paused
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return out, wall, (wall - paused) * CALIBRATION_REF_S / statistics.median(self.samples)


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs ops one at a time and checks each output."""

    def __init__(self, td, caches, workload: str, seed: int, reference: wl.Reference):
        self.td, self.caches = td, caches
        self.workload, self.seed, self.reference = workload, seed, reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.clock = SpeedClock()

    def execute(self, op, before=None, after=None):
        """(wall seconds, calibrated seconds, normalized summary or None,
        error text or None).  Every op starts after a full garbage
        collection, so no op pays for the garbage of the one before."""
        for c in self.caches:
            c.cache_clear()
        gc.collect()

        def call():
            try:
                return wl.run_op(self.td, op), None
            except Exception:  # an op that raises is a failed op, not a crash
                return None, traceback.format_exc(limit=4)

        (out, err), wall, seconds = self.clock.run(call, before, after)
        return wall, seconds, (None if out is None else wl.normalized(out)), err

    def check(self, index: int, op, summary, err) -> bool:
        self.attempted += 1
        problems = [err] if err else (
            wl.oracle_problems(op, summary)
            + self.reference.problems(self.workload, self.seed, index, op, summary)
        )
        if problems:
            self.fail(index, op, problems)
        return not problems

    def fail(self, index: int, op, problems) -> None:
        self.failed += 1
        self.failures.append({"index": index, "kind": op and op.kind, "key": op and op.key,
                              "problems": problems})


def nearest_rank(ordered, percent: int) -> float:
    """The sorted sample at index floor(percent% * (n - 1)), never an
    interpolation between two ops of different kinds."""
    return ordered[percent * (len(ordered) - 1) // 100]


def timed_run(runner: Runner, ops, seconds: float) -> dict:
    """Repeat the round until the phase is as close to ``seconds`` as a
    round boundary allows; at least two rounds.

    Op times are in calibrated seconds (see :class:`SpeedClock`).  The
    calibration errs both ways, so an op's time is the median of its
    repetitions, not the fastest; the metrics are taken over those."""
    times = [[] for _ in ops]
    raw = [[] for _ in ops]
    first = [None] * len(ops)
    round_s = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            dt, cal_s, summary, err = runner.execute(op)
            raw[i].append(dt)
            times[i].append(cal_s)
            if runner.check(i, op, summary, err):
                if first[i] is None:
                    first[i] = summary
                elif summary != first[i]:
                    runner.fail(i, op, ["output differs between repetitions"])
        round_s.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        if len(round_s) > 1 and elapsed + elapsed / len(round_s) / 2 >= seconds:
            break
    wall = time.perf_counter() - t0
    typical = sorted(statistics.median(t) for t in times)
    every = sorted(t for ts in raw for t in ts)
    good = runner.attempted - runner.failed
    return {
        "metrics": {
            "ops_per_s": good / runner.attempted * len(ops) / sum(typical),
            "op_p50_s": nearest_rank(typical, 50),
            "op_tail_s": statistics.mean(typical[-TAIL_OPS:]),
        },
        "rounds": len(round_s),
        "round_s": round_s,
        "median_s": [statistics.median(t) for t in times],
        "phase_s": wall,
        "phase_ops_per_s": good / wall,
        "wall_p50_s": nearest_rank(every, 50),
        "wall_p95_s": nearest_rank(every, 95),
        "op_s": times,
        "op_wall_s": raw,
    }


def traced_run(runner: Runner, ops, seconds: float, out_stem: str) -> dict:
    """Alternate untraced and traced passes over the round for ``seconds``;
    at least two of each, however long that takes.

    Counts come from the first traced pass and must repeat exactly in the
    others; self times are medians over passes.  The overhead ratio sums
    each op's median traced time over the sum of its median untraced time,
    calibrated as in :func:`timed_run`."""
    tracer = spans.Tracer()
    untraced_s, traced_s, self_by_pass, counts = [], [], [], None
    plain_s, traced_cal_s = [[] for _ in ops], [[] for _ in ops]
    op_id = 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(traced_s) > 1 and elapsed + elapsed / len(traced_s) / 2 >= seconds:
            break
        plain, total = [], 0.0
        for i, op in enumerate(ops):
            dt, cal_s, summary, err = runner.execute(op)
            plain_s[i].append(cal_s)
            runner.check(i, op, summary, err)
            plain.append(summary)
            total += dt
        untraced_s.append(total)

        tracer.reset_counters()
        tracer.install()
        first_op, total = op_id, 0.0
        try:
            for i, op in enumerate(ops):
                dt, cal_s, summary, err = runner.execute(
                    op, before=lambda: tracer.begin_op(op_id), after=tracer.end_op
                )
                op_id += 1
                traced_cal_s[i].append(cal_s)
                if runner.check(i, op, summary, err) and summary != plain[i]:
                    runner.fail(i, op, ["traced output differs from untraced"])
                total += dt
        finally:
            tracer.uninstall()
        traced_s.append(total)
        totals = tracer.totals(range(first_op, op_id))
        self_by_pass.append({name: v["self_s"] for name, v in totals.items()})
        pass_counts = tracer.layer_metrics({})
        if counts is None:
            counts, incl = pass_counts, totals
        elif pass_counts != counts:
            runner.fail(-1, None, ["per-layer counts differ between traced passes"])

    self_s = {name: statistics.median(p[name] for p in self_by_pass) for name in self_by_pass[0]}
    metrics = tracer.layer_metrics(self_s)
    metrics[spans.OVERHEAD_METRIC] = (sum(statistics.median(t) for t in traced_cal_s)
                                      / sum(statistics.median(t) for t in plain_s))
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{out_stem}.spans.tsv.gz"
    tracer.write_spans(span_file)
    return {
        "metrics": metrics,
        "passes": len(traced_s),
        "ops_per_pass": len(ops),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "first_pass_seconds": incl,
        "missing_layers": tracer.missing,
        "span_file": str(span_file.relative_to(ROOT)),
        "spans": len(tracer.starts),
    }


def stamp(seed: int) -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(dirty),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        raise BenchError("python -O strips the library's invariant asserts; refusing to time that program")
    td, ops, caches, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    reference = wl.Reference(**json.loads((BENCH / "reference.json").read_text()))
    runner = Runner(td, caches, args.workload, args.seed, reference)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced_run(runner, ops, args.seconds, stem)
        units = {name: unit for name, unit, _ in spans.metric_names()}
    else:
        result = timed_run(runner, ops, args.seconds)
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"]["op_success_rate"] = 1 - runner.failed / runner.attempted
        units = END_TO_END_UNITS
    failed = runner.failed
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]} for name in units}
    report = {
        "workload": args.workload,
        "why": wl.WORKLOADS[args.workload],
        "stamp": stamp(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "attempted": runner.attempted,
        "failed": failed,
        "op_error_rate": failed / runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
        "layers": {layer.name: layer.moves for layer in spans.LAYERS},
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for f in runner.failures[:10]:
        print(f"FAILED op {f['index']} ({f['kind']}, {f['key']}): {f['problems']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if not args.trace:
        print(f"# median of {result['rounds']} repetitions of each of {len(ops)} ops; "
              f"op_tail_s is the mean of the {TAIL_OPS} slowest; op_error_rate {report['op_error_rate']}")
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
