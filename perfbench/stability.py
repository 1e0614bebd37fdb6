#!/usr/bin/env python3
"""Run-to-run stability of the benchmark: the evidence that it is steady.

    python3 perfbench/stability.py --workloads paper_autok,fleet_10x --seeds 1-10

Runs two interleaved sets of the same code (set A seed 1, set B seed 1,
set B seed 2, set A seed 2, ...) through run.py and prints, per workload and
end-to-end metric: each set's median and quartiles, the spread
(q3 - q1) / median of each set, and how much worse set B's median is than
set A's — each against the metric's bound in BENCHMARK.json.

A metric passes when the between-set difference and every set's spread stay
within its bound, except that the spread of setup_s is not gated: set-up is
a few short repetitions per round (about a millisecond each on paper_autok),
so it spreads more across seeds than the other timings while its median
stays put, and it is judged by how far that median moves between the sets.
A metric is marked "steady" when every spread, setup_s's included, is also
under a third of the bound.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


SETS = 2


def run_once(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(workload, spec, sets):
    print(f"\n== {workload}  ({len(sets)} set(s) x {len(sets[0])} runs)")
    print(f"  {'metric':<20} {'bound':>6}  " + "  ".join(
        f"{'set ' + chr(65 + i) + ' median [q1, q3] spread':>44}" for i in range(len(sets)))
        + f"  {'diff':>7}  verdict")
    ok_all = True
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        cells, medians, spreads = [], [], []
        for runs in sets:
            q1, med, q3, spread = metrics.quartile_spread([r[name] for r in runs])
            medians.append(med)
            spreads.append(spread)
            cells.append(f"{med:>12.6g} [{q1:.6g}, {q3:.6g}] {spread:6.3f}")
        diff = max((worse_by(medians[0], m, entry["better"]) for m in medians[1:]),
                   default=0.0)
        spread_ok = name == "setup_s" or max(spreads) <= bound
        ok = spread_ok and diff <= bound
        steady = ok and max(spreads) < bound / 3
        verdict = "steady" if steady else ("ok" if ok else "FAIL")
        ok_all = ok_all and ok
        print(f"  {name:<20} {bound:>6}  " + "  ".join(f"{c:>44}" for c in cells)
              + f"  {diff:+7.3f}  {verdict}")
    return ok_all


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(SETS)]
        for i, seed in enumerate(seeds):
            # Alternate which set goes first so drift in the host hits both.
            order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
            for s in order:
                start = time.monotonic()
                sets[s].append(run_once(workload, seed))
                print(f"  {workload} set {chr(65 + s)} seed {seed} "
                      f"({time.monotonic() - start:.0f} s): " + " ".join(
                    f"{k}={v:.6g}" for k, v in sets[s][-1].items()), flush=True)
        ok = report(workload, spec, sets) and ok
    print("\nall metrics within bounds" if ok else "\nSOME METRICS OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
