"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, at smoke size, that:

- the same seed gives byte-identical inputs and another seed does not;
- every workload passes its output checks, untraced and traced, and the
  traced run reports every per-layer metric named in BENCHMARK.json;
- an injected wrong output (a dropped annotation, a lost edit, a
  pattern missing one of its graphs) is counted as a failed check;
- ``run.py`` prints one JSON object with exactly the agreed keys as its
  last line, and its helper process has ended when it exits;
- ``run.py`` fails, without printing a result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.

Exits with 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

import run

SEED = 5


def _bytes(paths):
    out = []
    for path in paths:
        with open(path, "rb") as handle:
            out.append((os.path.basename(path), handle.read()))
    return out


def check_workload(name, workdir, spec, report):
    import workloads
    size = workloads.SIZES["smoke"][name]
    make = workloads.WORKLOADS[name]

    first, second, other = make(size), make(size), make(size)
    for n, (workload, seed) in enumerate(((first, SEED), (second, SEED),
                                          (other, SEED + 1))):
        directory = os.path.join(workdir, f"{name}-{n}")
        os.makedirs(directory)
        workload.setup(directory, seed)
    report(f"{name}: same seed, byte-identical inputs",
           _bytes(first.inputs()) == _bytes(second.inputs()))
    report(f"{name}: another seed, other inputs",
           _bytes(first.inputs()) != _bytes(other.inputs()))

    checks = workloads.Checks()
    for _ in range(2):
        first.round()
        first.verify(checks)
    report(f"{name}: smoke run passes {checks.attempted} checks",
           checks.attempted > 0 and not checks.failures, checks.failures)

    checks = workloads.Checks()
    first.round()
    first.verify(checks, fault=True)
    report(f"{name}: injected wrong output is counted",
           len(checks.failures) >= 1)

    checks = workloads.Checks()
    metrics = run.traced(first, checks)
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in metrics]
    report(f"{name}: traced run passes and reports every per-layer metric",
           not checks.failures and not missing, checks.failures + missing)


def context_of(stdout):
    line = [x for x in stdout.splitlines() if x.startswith("context ")][-1]
    return json.loads(line[len("context "):])


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def check_command(workdir, spec, report):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine", "--seed",
         "3", "--seconds", "0", "--trace", "0", "--size", "smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    last = json.loads(done.stdout.strip().splitlines()[-1]) \
        if done.returncode == 0 else {}
    report("run.py prints the agreed result line",
           sorted(last) == ["attempted", "correct", "failed", "metrics"]
           and sorted(last["metrics"])
           == sorted(m["name"] for m in spec["end_to_end"])
           and last["correct"] and last["attempted"] >= 1,
           done.stderr[-2000:])
    report("run.py leaves no process running", done.returncode == 0
           and not alive(context_of(done.stdout)["child_pid"]))

    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine", "--seed",
         "3", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    report("run.py fails without the annokit sources",
           done.returncode != 0 and '"metrics"' not in done.stdout)


def main():
    run.import_annokit()
    import workloads
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    workdir = os.path.join(run.HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    failed = []

    def report(what, ok, detail=None):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failed.append(what)
            if detail:
                print(f"     {detail}")

    try:
        for name in workloads.WORKLOADS:
            check_workload(name, workdir, spec, report)
        check_command(workdir, spec, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failed)} failed" if failed else "all passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
