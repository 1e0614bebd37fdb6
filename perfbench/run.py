#!/usr/bin/env python3
"""FLARE end-to-end benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload paper_autok --seed 1 --seconds 12 --trace 0

Run from the repository root. Builds the repository's libraries and the
flare_perfbench binary from source (Release, into .bench_build/), runs the
workload, checks its outputs, and prints every metric with its unit,
direction and sample count. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs a
plain and a traced pass plus the layer walk and reports the per-layer
metrics, including the tracing overhead. Exits non-zero when an output
check fails or the benchmark cannot run.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import socket
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from statistics import StatisticsError  # noqa: E402

BUILD_DIR = pathlib.Path(".bench_build")
BINARY = BUILD_DIR / "perfbench" / "flare_perfbench"
RUN_LIMIT_S = 170  # the whole run, build included, must end within 180 s
FIRST_BUILD_LIMIT_S = 880


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env():
    """Environment for child processes: temporary files stay in the checkout."""
    tmp = (ROOT / BUILD_DIR / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures (once) and builds the binary; returns seconds spent."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("FLARE sources (src/CMakeLists.txt) are missing; run from a "
             "repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        tree = BUILD_DIR / "perfbench"
        steps = []
        if not (tree / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE.relative_to(ROOT)), "-B", str(tree),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(tree), "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=FIRST_BUILD_LIMIT_S, env=child_env())
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(step)}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)}")
    return time.monotonic() - start


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        # The ceiling keeps git from adopting a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_binary(args, budget_s):
    run_dir = BUILD_DIR / "run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=budget_s,
                              env=child_env())
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {budget_s:.0f} s", 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"flare_perfbench exited with code {done.returncode}", 1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_metrics(title, values, spec_entries):
    print(title)
    for entry in spec_entries:
        value, n = values[entry["name"]]
        print(f"  {entry['name']:<34} {value:>16.6g} {entry['unit']:<6} "
              f"{entry['better']} is better  n={n}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")

    started = time.monotonic()
    os.chdir(ROOT)
    build_s = build()
    limit = FIRST_BUILD_LIMIT_S if build_s > 60 else RUN_LIMIT_S
    raw = run_binary(args, max(limit - (time.monotonic() - started), 10))

    print(f"stamp host={socket.gethostname()} nproc={os.cpu_count()} "
          f"machine={platform.machine()} compiler=\"{raw['compiler']}\" "
          f"build_type={raw['build_type']} commit={commit()} "
          f"source_sha256={source_digest()} workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if raw["build_type"] != "Release":
        fail(f"refusing a {raw['build_type']} build")

    det = raw["deterministic"]
    try:
        plain = metrics.end_to_end(raw["plain"], det)
        traced = metrics.end_to_end(raw["traced"], det) if args.trace else None
        layer = metrics.per_layer(raw, plain, traced) if args.trace else None
    except (metrics.TooFewSamples, KeyError, StatisticsError, ZeroDivisionError) as e:
        for message in raw["checks"]["failures"]:
            print(f"  CHECK FAILED: {message}", file=sys.stderr)
        fail(f"{args.workload}: no metrics from this run ({e!r})", 1)

    passes = [raw["plain"]] + ([raw["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = raw["checks"]["failures"]
    rounds = len(raw["plain"]["rounds"])
    print_metrics(f"end-to-end ({rounds} measured rounds"
                  f"{', plain pass' if args.trace else ''}):",
                  plain, spec["end_to_end"])
    print(f"  {'failed_frac':<34} {failed / max(attempted, 1):>16.6g} {'':<6} "
          f"lower is better  n={attempted}")
    print("deterministic " + json.dumps(
        {"estimate_error_pp": det["estimate_error_pp"],
         "replay_cost_ratio": det["replay_cost_ratio"], **det["counts"]},
        sort_keys=True))
    print(f"checks passed={raw['checks']['passed']} failed={len(failures)}")
    for message in failures:
        print(f"  CHECK FAILED: {message}")

    if args.trace:
        print_metrics("per-layer (traced pass and layer walk):", layer,
                      spec["per_layer"])
        print("tracing overhead (traced vs plain pass):")
        for name in metrics.TIMED_END_TO_END:
            print(f"  {name:<22} plain {plain[name][0]:>12.6g}  "
                  f"traced {traced[name][0]:>12.6g}  "
                  f"{layer[f'overhead.{name}_pct'][0]:+.2f} %")
        chosen, entries = layer, spec["per_layer"]
    else:
        chosen, entries = plain, spec["end_to_end"]

    values = {e["name"]: chosen[e["name"]][0] for e in entries}
    finite = all(math.isfinite(v) for v in values.values())
    correct = not failures and failed == 0 and finite
    if not args.trace:
        correct = correct and all(v > 0 for v in values.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                    for e in entries},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
