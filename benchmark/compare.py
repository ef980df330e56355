#!/usr/bin/env python3
"""Compare two sides of benchmark results files.

    python3 benchmark/compare.py A.json B.json
    python3 benchmark/compare.py A1.json A2.json ... -- B1.json B2.json ...

The files are benchmark/results/<git-sha>-seed<N>.json, written by run.py;
side A is the baseline.  A side of one file takes each metric's value as
run.py reports it and the samples of that one pass.  A side of several
passes takes the median of their values, and those values as its samples:
on a box whose speed drifts between windows, judge a change this way.  One
row per workload x end-to-end metric gives each side's value and the
quartiles of its samples, B's change against A, and a verdict:

    better / worse   B moved past the metric's bound in that direction;
    unchanged        within the bound;
    unresolved       either side's samples spread wider than the bound (their
                     interquartile range as a share of their median), unless
                     every B sample beats every A sample.

Bounds come from BENCHMARK.json.  Metrics it does not list are modelled
(simulated-time) costs, judged with a 1 % bound, and failed_runs, which may
not rise at all.  sim_* metrics are deterministic per seed set, so a
simulator-only change must leave them identical when both sides ran the
same seeds; the footer says whether they are.  Warns when the box
fingerprints differ.  Exits 1 when any row is worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FLOORS = {"setup_s": 1e-3}  # sub-ms set-up times swing by half; ignore < 1 ms


def load(path):
    with open(path) as f:
        return json.load(f)


def side(paths):
    """(fingerprints, {workload: {metric: {"value", "samples"}}}) of one side."""
    results = [load(p) for p in paths]
    if len(results) == 1:
        return [results[0]["fingerprint"]], {
            w: e["end_to_end"] for w, e in results[0]["workloads"].items()}
    workloads = {}
    for r in results:
        for w, e in r["workloads"].items():
            for name, m in e["end_to_end"].items():
                workloads.setdefault(w, {}).setdefault(name, []).append(m["value"])
    return [r["fingerprint"] for r in results], {
        w: {name: {"value": statistics.median(v), "samples": v} for name, v in ms.items()}
        for w, ms in workloads.items()}


def spread(samples):
    """(q1, q3) of the samples; a single sample has no spread."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def relative_iqr(samples):
    q1, q3 = spread(samples)
    median = statistics.median(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(name, a, b, better, bound):
    ma, mb = a["value"], b["value"]
    if ma == mb:
        return "unchanged", 0.0
    change = (mb - ma) / abs(ma) if ma else float("inf")
    gain = -change if better == "lower" else change
    if abs(mb - ma) < FLOORS.get(name, 0.0):
        return "unchanged", change
    sa, sb = a["samples"] or [ma], b["samples"] or [mb]
    if max(relative_iqr(sa), relative_iqr(sb)) > bound:
        wins = (max(sb) < min(sa)) if better == "lower" else (min(sb) > max(sa))
        return ("better" if wins else "unresolved"), change
    if gain > bound:
        return "better", change
    if -gain > bound:
        return "worse", change
    return "unchanged", change


def main():
    args = sys.argv[1:]
    if "--" in args:
        cut = args.index("--")
        paths_a, paths_b = args[:cut], args[cut + 1:]
    elif len(args) == 2:
        paths_a, paths_b = args[:1], args[1:]
    else:
        paths_a = paths_b = []
    if not paths_a or not paths_b:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    (fps_a, a), (fps_b, b) = side(paths_a), side(paths_b)
    contract = load(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in contract["end_to_end"]}

    fps = fps_a + fps_b
    for key in sorted(set().union(*fps)):
        values = {repr(f.get(key)) for f in fps}
        if key != "git_sha" and len(values) > 1:
            print("warning: fingerprints differ in %s: %s" % (key, ", ".join(sorted(values))))
    print("A = %s   B = %s" % (" ".join(sorted({f.get("git_sha") for f in fps_a})),
                               " ".join(sorted({f.get("git_sha") for f in fps_b}))))
    print("%-15s %-30s %34s %34s %8s  %s" % ("workload", "metric", "A value [q1, q3]",
                                            "B value [q1, q3]", "change", "verdict"))
    worse, sim_changed = 0, []
    for workload in a:
        if workload not in b:
            print("%-15s missing from B" % workload)
            continue
        ma, mb = a[workload], b[workload]
        for name in ma:
            if name not in mb:
                continue
            better, bound = rules.get(name, ("lower", 0.0 if name == "failed_runs" else 0.01))
            v, change = verdict(name, ma[name], mb[name], better, bound)
            worse += v == "worse"
            if name.startswith("sim_") and ma[name]["value"] != mb[name]["value"]:
                sim_changed.append("%s/%s" % (workload, name))
            cells = []
            for m in (ma[name], mb[name]):
                q1, q3 = spread(m["samples"] or [m["value"]])
                cells.append("%.6g [%.6g, %.6g]" % (m["value"], q1, q3))
            print("%-15s %-30s %34s %34s %+7.2f%%  %s" % (workload, name, cells[0], cells[1],
                                                        100 * change, v))
    print("sim_* identical: " + ("yes" if not sim_changed else "no (" + ", ".join(sim_changed) + ")"))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
