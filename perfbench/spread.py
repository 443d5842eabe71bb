"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it.

    python3 perfbench/spread.py --runs 10

Runs ``perfbench/run.py`` once per seed (1, 2, ...) for every workload in
BENCHMARK.json, one process at a time, and reports for each end-to-end
metric its median over the runs and the distance between the first and
third quartile as a share of that median, next to the metric's bound.
Every spread, ``setup_s``'s too, should stay below a third of its bound;
the exit code is 1 when one does not or a check failed. The last line
holds the raw values as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    raw = {}
    steady = True
    for workload in spec["workloads"]:
        name = workload["name"]
        values = {m["name"]: [] for m in spec["end_to_end"]}
        took = []
        for seed in range(1, args.runs + 1):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
                check=True)
            took.append(time.perf_counter() - start)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} checks failed")
                steady = False
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
        raw[name] = values
        print(f"{name:12s} one run took {min(took):.0f} to {max(took):.0f} s",
              flush=True)
        for m in spec["end_to_end"]:
            got = values[m["name"]]
            q1, median, q3 = statistics.quantiles(got, n=4)
            share = (q3 - q1) / median
            ok = share < m["bound"] / 3
            steady &= ok
            print(f"{name:12s} {m['name']:12s} median {median:10.4g}"
                  f" {m['unit']:7s} spread {share:6.2%}"
                  f" bound {m['bound']:.0%} {'ok' if ok else 'WIDE'}",
                  flush=True)
    print(json.dumps(raw))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
