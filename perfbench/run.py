"""Run one annokit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run it from the repository root. It imports annokit from ``src/``,
generates every input from ``--seed`` under ``perfbench/_work/`` (removed
on exit), and repeats the workload's timed round until ``--seconds``
have passed and its minimum round count is met. It sets the workload up
at least three times, and afresh before each round until three seconds
have gone into set-up; ``setup_s`` is the median. Set-ups and output
checks run in one child process, so ``peak_rss_mb`` covers the timed
rounds only. Every output is checked.

With ``--trace 0`` the last line is the end-to-end result; with
``--trace 1`` it runs one warm-up round, one untraced round and one
traced round, and the last line carries the per-layer metrics and
``trace.overhead_s`` (traced minus untraced round time). The metric
names and units come from BENCHMARK.json. The lines before the last one
list every metric measured, including the ungated ones, and the run's
context (source size, cores, Python and sqlite versions, sqlite
settings).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sqlite3
import statistics
import sys
import time

from child import Child

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set up at least MIN_SETUPS times, and again before every round until
# SETUP_SECONDS have gone into set-up, so that set-ups are spread over
# the run and a quick set-up still gives a steady median.
MIN_SETUPS = 3
SETUP_SECONDS = 3.0
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the self-test")
    return parser.parse_args(argv)


def import_annokit():
    """Make ``annokit`` and the benchmark modules importable, or fail."""
    if not os.path.isfile(os.path.join(SRC, "annokit", "__init__.py")):
        raise SystemExit(f"error: no annokit sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    for key in [k for k in os.environ if k.startswith("ANNOKIT_")]:
        del os.environ[key]  # the benchmark's config files decide


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def context(workdir):
    from annokit.store import CdmStore
    lines = 0
    package = os.path.join(SRC, "annokit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                lines += sum(1 for _ in f)
    with CdmStore(os.path.join(workdir, "pragma.db")) as store:
        journal = store.connection.execute("PRAGMA journal_mode").fetchone()
        synchronous = store.connection.execute(
            "PRAGMA synchronous").fetchone()
    return {"src_annokit_lines": lines, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "sqlite": sqlite3.sqlite_version,
            "sqlite_journal_mode": journal[0],
            "sqlite_synchronous": synchronous[0]}


def set_up(child, workload, workdir, seed, times):
    """One more set-up in a fresh directory, replacing the previous one;
    appends its duration to ``times``. It runs in the ``child`` process,
    which hands back the workload's state, so that the memory set-up
    takes stays out of this process's peak."""
    n = len(times)
    directory = os.path.join(workdir, f"setup{n}")
    os.makedirs(directory)
    size = workload.size
    workload.__dict__.clear()  # free the last state before the next comes
    seconds, state = child.call("set_up", type(workload), size, directory,
                                seed)
    workload.__dict__.update(state)
    times.append(seconds)
    if n:
        shutil.rmtree(os.path.join(workdir, f"setup{n - 1}"))


def verify(child, workload, checks):
    """Check the last round's outputs in the ``child`` process, so that
    the memory the checks take (whole documents read back, oracles,
    recounts) stays out of this process's peak."""
    done = child.call("verify", workload)
    checks.attempted += done.attempted
    checks.failures += done.failures


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Peak:
    """The process's peak resident memory, and the phase that last
    raised it."""

    def __init__(self):
        self.mb, self.phase = rss_mb(), "start"

    def note(self, phase):
        mb = rss_mb()
        if mb > self.mb:
            self.mb, self.phase = mb, phase


def measure(child, workload, checks, seconds, min_rounds, set_up_again):
    """Timed rounds until ``seconds`` have gone into rounds and their
    checks and ``min_rounds`` and MIN_SETUPS are met; returns (rounds,
    set-up times, peak memory)."""
    setups, rounds = [], []
    set_up_again(setups)
    peak = Peak()
    start = time.perf_counter()
    while (len(rounds) < min_rounds or len(setups) < MIN_SETUPS
           or time.perf_counter() - start - sum(setups[1:]) < seconds):
        if rounds and (len(setups) < MIN_SETUPS
                       or sum(setups) < SETUP_SECONDS):
            set_up_again(setups)
            peak.note("set-up")
        rounds.append(workload.round())
        peak.note("rounds")
        verify(child, workload, checks)
        peak.note("checks")
    return rounds, setups, peak


def end_to_end(rounds, setups):
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
    }
    if "docs" in rounds[0]:
        out["docs_per_s"] = (statistics.median(
            r["docs"] / r["wall_s"] for r in rounds), "docs/s")
    ops = {}
    for r in rounds:
        for kind, values in r.get("ops", {}).items():
            ops.setdefault(kind, []).extend(values)
    units = {"open": "ms", "query": "us", "export": "ms", "edit": "ms"}
    for kind, values in ops.items():
        unit = units[kind]
        out[f"{kind}_p50_{unit}"] = (statistics.median(values), unit)
        out[f"{kind}_p90_{unit}"] = (p90(values), unit)
    samples = {kind: len(values) for kind, values in ops.items()}
    samples["rounds"] = len(rounds)
    return out, samples


def traced(workload, checks):
    import tracing
    workload.round()  # warm-up
    workload.verify(checks)
    untraced = workload.round()
    workload.verify(checks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with_trace = workload.round()
    finally:
        tracer.uninstall()
    workload.verify(checks)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = with_trace["wall_s"] - untraced["wall_s"]
    return metrics


def run(args):
    import_annokit()
    import workloads
    workloads.skip_disk_syncs()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; known:"
                         f" {', '.join(workloads.WORKLOADS)}")
    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](size)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    child = Child()
    try:
        os.makedirs(workdir)
        checks = workloads.Checks()
        info = context(workdir)
        info["child_pid"] = child.process.pid

        def set_up_again(times):
            set_up(child, workload, workdir, args.seed, times)

        if args.trace:
            set_up_again([])
            values = traced(workload, checks)
            wanted = spec["per_layer"]
            table = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
        else:
            min_rounds = getattr(workload, "min_rounds", MIN_ROUNDS)
            rounds, setups, peak = measure(child, workload, checks,
                                           args.seconds, min_rounds,
                                           set_up_again)
            table, samples = end_to_end(rounds, setups)
            table["peak_rss_mb"] = (peak.mb, "MB")
            info["samples"] = samples
            info["peak_rss_set_by"] = peak.phase
            wanted = spec["end_to_end"]
        failed = len(checks.failures)
        table["failed_ratio"] = (failed / max(1, checks.attempted), "ratio")
    finally:
        child.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for what in checks.failures[:20]:
        print(f"check failed: {what}", file=sys.stderr)
    for name, (value, unit) in table.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("context " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": table[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def stop(signum, frame):
    raise SystemExit(128 + signum)  # so that the child is stopped too


def main(argv=None):
    signal.signal(signal.SIGTERM, stop)
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
