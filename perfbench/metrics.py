"""Reduces one raw flare_perfbench result to the benchmark's metrics.

The flare_perfbench binary reports raw samples per round; every statistic the
benchmark prints is computed here, so the rules live in one place:

* a timing is reported as its median plus the highest percentile with at
  least ten samples beyond it, so the 90th percentile needs 100 samples;
* a percentile computed from fewer samples is refused, never estimated;
* set-up, and the latencies and rates of series that are not replayed
  (serve_mix's), are taken over the fastest third of a pass's rounds: set-up
  over the rounds with the shortest wall time, the others over the rounds
  with the shortest steady phase. Rounds repeat identical work, so what
  separates a slow round from a fast one is interference from the rest of
  the host, which on shared machines comes in phases lasting seconds. A
  change to the program moves every round;
* repeated identical work is reported at its fastest repetition over all
  measured rounds, which is its cost with the least interference: the fit
  behind time-to-estimate, and each operation of a latency series the
  binary marks as replayed (the same operations in the same order in every
  round). Percentiles of a replayed series are taken over those
  per-operation times, so a contention burst that slows some operations of
  some rounds does not reach the tail, and its rates are one round's
  operations, back to back, over the sum of their times;
* peak RSS is the median over every measured round of that round's
  high-water mark, which varies with how the allocator's per-thread arenas
  happen to be used.
"""

import math
import statistics

# Share of a pass's rounds, fastest first, that the statistics are taken over.
QUIET_SHARE = 3

# Timing metrics whose traced-vs-plain movement is the tracing overhead.
TIMED_END_TO_END = (
    "setup_s",
    "time_to_estimate_s",
    "eval_p50_ms",
    "eval_p90_ms",
    "ingest_p50_ms",
    "ingest_p90_ms",
    "ingest_rows_per_s",
    "requests_per_s",
)


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q):
    """Samples needed for percentile q: ten beyond it for tail percentiles."""
    if q <= 0.5:
        return 1
    return math.ceil(10 / (1 - q) - 1e-9)


def percentile(samples, q):
    """Linear-interpolated percentile q (0 < q < 1) of samples.

    Raises TooFewSamples when len(samples) < min_samples(q).
    """
    need = min_samples(q)
    if len(samples) < need:
        raise TooFewSamples(
            f"p{round(q * 100)} needs at least {need} samples, got {len(samples)}"
        )
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quiet_rounds(rounds, phase="wall_s"):
    """The fastest third (rounded up) of rounds, ranked by `phase` seconds
    (wall_s: the whole round; steady_wall_s: its steady phase)."""
    ranked = sorted(rounds, key=lambda r: r[phase])
    return ranked[: math.ceil(len(ranked) / QUIET_SHARE)]


def pooled(rounds, series):
    return [v for r in rounds for v in r["samples"].get(series, [])]


def fastest_per_position(rounds, series):
    """Each operation's fastest repetition across rounds, in sequence order.

    Rounds replay the same operations in the same order, so the minimum over
    a position's repetitions is that operation's cost with the least
    interference from the host, and what spreads the positions apart is the
    operations themselves.
    """
    columns = [r["samples"][series] for r in rounds]
    if len({len(c) for c in columns}) != 1:
        raise ValueError(f"{series}: rounds replayed different operation counts")
    return [min(repetitions) for repetitions in zip(*columns)]


def end_to_end(pass_raw, deterministic):
    """End-to-end metrics of one pass: {name: (value, sample count)}."""
    cold = quiet_rounds(pass_raw["rounds"], "wall_s")
    rounds = quiet_rounds(pass_raw["rounds"], "steady_wall_s")
    s = {"setup_s": pooled(cold, "setup_s"), "tte_s": pooled(pass_raw["rounds"], "tte_s")}
    replayed = set(pass_raw["replayed"])
    for name in ("eval_ms", "ingest_ms"):
        if name in replayed:
            s[name] = fastest_per_position(pass_raw["rounds"], name)
        else:
            s[name] = pooled(rounds, name)
    ingest_s = sum(s["ingest_ms"]) / 1000.0
    if replayed >= {"eval_ms", "ingest_ms"}:
        # One round's operations, back to back, each at its fastest.
        ingest_rows = pass_raw["rounds"][0]["ingest_rows"]
        steady_ops = len(s["eval_ms"]) + len(s["ingest_ms"])
        steady_s = ingest_s + sum(s["eval_ms"]) / 1000.0
    else:
        ingest_rows = sum(r["ingest_rows"] for r in rounds)
        steady_ops = sum(r["steady_ops"] for r in rounds)
        steady_s = sum(r["steady_wall_s"] for r in rounds)
    return {
        "setup_s": (statistics.median(s["setup_s"]), len(s["setup_s"])),
        # The fit is identical work in every round: its fastest repetition
        # is its cost with the least interference.
        "time_to_estimate_s": (min(s["tte_s"]), len(s["tte_s"])),
        "eval_p50_ms": (percentile(s["eval_ms"], 0.5), len(s["eval_ms"])),
        "eval_p90_ms": (percentile(s["eval_ms"], 0.9), len(s["eval_ms"])),
        "ingest_p50_ms": (percentile(s["ingest_ms"], 0.5), len(s["ingest_ms"])),
        "ingest_p90_ms": (percentile(s["ingest_ms"], 0.9), len(s["ingest_ms"])),
        "ingest_rows_per_s": (
            ingest_rows / ingest_s,
            len(s["ingest_ms"]),
        ),
        "requests_per_s": (steady_ops / steady_s, steady_ops),
        "estimate_error_pp": (deterministic["estimate_error_pp"], 1),
        "replay_cost_ratio": (deterministic["replay_cost_ratio"], 1),
        "peak_rss_mb": (
            statistics.median([r["peak_rss_mb"] for r in pass_raw["rounds"]]),
            len(pass_raw["rounds"]),
        ),
    }


def per_layer(raw, plain, traced):
    """Per-layer metrics of a traced run: {name: (value, sample count)}.

    `plain` and `traced` are the end-to-end metrics of the two passes; their
    relative difference is reported as overhead.<metric>_pct.
    """
    out = {name: (value, 1) for name, value in raw["layer_values"].items()}
    for name, samples in raw["layer_samples"].items():
        if name.startswith("serve."):
            quantiles = (0.5, 0.9)
        else:  # per-action ingest latencies: a median of whatever occurred
            quantiles = (0.5,)
        for q in quantiles:
            value = percentile(samples, q) if samples else 0.0
            out[f"{name}_p{round(q * 100)}"] = (value, len(samples))
    for name in TIMED_END_TO_END:
        base = plain[name][0]
        out[f"overhead.{name}_pct"] = (100.0 * (traced[name][0] - base) / base, 1)
    return out


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else math.inf
