#!/usr/bin/env python3
"""HC3I simulator benchmark: build, run every workload, print metrics, check outputs.

    python3 benchmark/run.py [--seed=N] [--traced]
        All four workloads, each in its own child process.  Prints every
        end-to-end metric as `workload metric value unit (n=samples)`,
        checks the outputs and writes
        benchmark/results/<git-sha>-seed<N>.json.  --traced adds the traced
        pass and the per-layer kernels.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload.  The last stdout line is one JSON object:
        {"correct", "attempted", "failed", "metrics"} with the end-to-end
        metrics of BENCHMARK.json (--trace 0) or its per-layer ones (--trace 1).

Exits non-zero when the build fails or any output check fails.
benchmark/README.md defines the workloads and metrics.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
RESULTS = os.path.join(HERE, "results")
BENCH = os.path.join(BUILD, "hc3i_bench")
KERNELS = os.path.join(BUILD, "hc3i_kernels")

# Host seconds per unit (one run; for wide_sweep one 4-run batch) measured
# on the 4-core box the benchmark was sized on.  They turn --seconds into a
# fixed seed count, so the sim_* metrics depend on the seed alone, and they
# set the runaway budget: 10x the expected run time, at least 20 s.  Runs use
# seeds N, N+1, ... from --seed.
WORKLOADS = {
    "steady": {"unit_s": 1.32, "run_s": 1.32, "setups": 20,
               "golden": "bench/golden_counters_scale.txt"},
    "faulty": {"unit_s": 1.5, "run_s": 1.5, "setups": 20},
    "storage_traced": {"unit_s": 2.2, "run_s": 2.2, "setups": 20,
                       "golden": "bench/golden_counters_scale_storage.txt"},
    "wide_sweep": {"unit_s": 8.0, "run_s": 4.8, "setups": 24, "seeds_per_unit": 2},
}
TRACED_UNITS = {"wide_sweep": 1}  # others: 4 seeds
KERNEL_BUDGET_S = 60


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "hc3i_bench", "hc3i_kernels"])
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if done.returncode != 0:
            log(done.stdout)
            raise BenchError("build failed: " + " ".join(cmd))


def fingerprint():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
    return {
        "nproc": os.cpu_count(),
        "compiler": version.splitlines()[0] if version else compiler,
        "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                  cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")).strip(),
        "build_type": build_type,
        "git_sha": git_sha(),
    }


def git_sha():
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        return "unknown"
    sha = git("rev-parse", "--short=12", "HEAD").stdout.strip() or "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return sha + ("-dirty" if dirty else "")


# --- child processes --------------------------------------------------------


def stream(args, budget_s):
    """Yield the child's JSON lines; None (after killing it) when no line
    arrives within budget_s."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        pending = b""
        while True:
            ready, _, _ = select.select([proc.stdout], [], [], budget_s)
            if not ready:
                proc.kill()
                yield None
                return
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                yield json.loads(line)
        if proc.wait() != 0:
            raise BenchError("%s exited with %d" % (os.path.basename(args[0]), proc.returncode))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def measure(name, seed, seconds):
    """Untraced pass: closed loop over a fixed seed set, one child process,
    respawned past a runaway unit."""
    w = WORKLOADS[name]
    spu = w.get("seeds_per_unit", 1)
    units = max(1, int(seconds / w["unit_s"] + 0.5))
    seeds = [seed + i for i in range(units * spu)]
    runs_per_unit = 2 * spu if name == "wide_sweep" else 1
    budget = max(20.0, 10 * w["run_s"])
    data = {"runs": [], "batches": [], "setups": [], "checks": [], "rss_kb": 0,
            "attempted": units * runs_per_unit, "failed": 0, "unit_walls": []}
    done = 0
    while True:
        args = [BENCH, "--workload=" + name, "--setups=%d" % w["setups"]]
        if done < units:
            args.append("--seeds=" + ",".join(str(x) for x in seeds[done * spu:]))
        if "golden" in w:
            os.makedirs(RESULTS, exist_ok=True)
            args += ["--golden=" + w["golden"], "--export-dir=" + RESULTS]
        killed = False
        for msg in stream(args, budget):
            if msg is None:
                killed = True
                break
            kind = msg["kind"]
            if kind in ("run", "batch"):
                done += 1
                data["setups"] += msg["setup_s"]
                data["unit_walls"].append(msg["wall_s"])
                runs = msg["runs"] if kind == "batch" else [msg]
                data["runs"] += runs
                data["failed"] += sum(1 for r in runs if not r["ok"])
                if kind == "batch":
                    data["batches"].append(msg)
            elif kind == "check":
                data["checks"].append(msg)
            elif kind == "end":
                data["rss_kb"] = max(data["rss_kb"], msg["peak_rss_kb"])
        if not killed:
            break
        if done < units:
            log("%s: unit at seed %d exceeded its %.0f s budget; killed" %
                (name, seeds[done * spu], budget))
            data["failed"] += runs_per_unit
            done += 1
        else:
            data["checks"].append({"name": name + " verification run", "ok": False,
                                   "detail": "no output for %.0f s" % budget})
            break
    # A runaway counts only in "failed"; a run that ends in an error (an
    # exception or a consistency violation) also fails this check.
    errors = ["seed %d: %s" % (r["seed"], r["error"]) for r in data["runs"] if not r["ok"]]
    data["checks"].append({"name": name + " runs end without an error", "ok": not errors,
                           "detail": "; ".join(errors)})
    data["checks"] += [check_exports(c) for c in data["checks"] if "trace" in c]
    return data


def check_exports(golden_check):
    """The exported trace JSON parses; the metrics TSV has a header and rows.
    Both files are removed afterwards (the trace is ~150 MB)."""
    check = {"name": "exported trace and metrics parse", "trace": golden_check["trace"],
             "metrics": golden_check["metrics"]}
    problems = []
    try:
        with open(check["trace"], "rb") as f:
            # Events collapse to None as they parse: a full parse without
            # holding a million dicts.
            doc = json.loads(f.read(), object_hook=lambda d: d if "traceEvents" in d else None)
        if not isinstance(doc, dict) or not doc.get("traceEvents"):
            problems.append("trace has no events")
        with open(check["metrics"]) as f:
            rows = [r.split("\t") for r in f.read().splitlines()]
        if len(rows) < 2 or rows[0][0] != "time_s" or any(len(r) != len(rows[0]) for r in rows):
            problems.append("metrics TSV lacks a header or rows")
    except (OSError, ValueError) as e:
        problems.append(str(e))
    finally:
        for key in ("trace", "metrics"):
            if os.path.exists(check[key]):
                os.remove(check[key])
    check.update(ok=not problems, detail="; ".join(problems))
    return check


def trace_pass(name, seed):
    w = WORKLOADS[name]
    seeds = [seed + i for i in range(TRACED_UNITS.get(name, 4))]
    args = [BENCH, "--workload=" + name, "--traced", "--seeds=" + ",".join(str(x) for x in seeds)]
    traced = []
    for msg in stream(args, max(20.0, 25 * w["run_s"])):
        if msg is None:
            log("%s: traced run exceeded its budget; killed" % name)
            traced.append({"ok": False, "runaway": True})
            break
        if msg["kind"] == "traced":
            traced.append(msg)
    return traced


def traced_check(name, traced):
    """Every traced run that ended matched its untraced twin (a runaway
    counts only as failed)."""
    bad = ["seed %s: %s" % (t["seed"], t["error"]) for t in traced
           if not t["ok"] and not t.get("runaway")]
    return {"name": name + " traced dumps match untraced twins", "ok": not bad,
            "detail": "; ".join(bad)}


def kernel_pass(seed):
    kernels, checks = {}, []
    for msg in stream([KERNELS, "--seed=%d" % seed], KERNEL_BUDGET_S):
        if msg is None:
            checks.append({"name": "kernels", "ok": False, "detail": "kernels exceeded their budget"})
            break
        if msg["kind"] == "kernel":
            kernels[msg["name"]] = msg
        elif msg["kind"] == "check":
            checks.append(msg)
    return kernels, checks


# --- metrics ----------------------------------------------------------------


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "n": len(samples), "samples": samples}


def per_campaign(runs, value, best):
    """The mean over campaigns of each campaign's best (min or max)
    value(run), and as samples every run's value scaled by that mean over
    its campaign's best: wide_sweep's two campaigns differ by half in cost,
    and the samples should spread by run-to-run noise, not by campaign."""
    groups = {}
    for r in runs:
        groups.setdefault(r["campaign"], []).append(value(r))
    bests = {c: best(v) for c, v in groups.items()}
    estimate = statistics.fmean(bests.values())
    return estimate, [value(r) * estimate / bests[r["campaign"]] for r in runs]


def end_to_end(data):
    runs = [r for r in data["runs"] if r["ok"]]
    out = {}
    if runs:
        # Host times report the fastest run: co-tenants' memory traffic only
        # ever adds time, and slows stretches of runs by up to 70 %
        # (README.md, "Noise").
        value, samples = per_campaign(runs, lambda r: r["wall_s"], min)
        out["run_wall_s"] = metric(value, "s", samples)
        value, samples = per_campaign(runs, lambda r: r["events"] / r["wall_s"], max)
        out["events_per_s"] = metric(value, "events/s", samples)
        units = data["unit_walls"]
        rpm = [len(runs) / len(units) * 60.0 / u for u in units]
        out["runs_per_min"] = metric(max(rpm), "runs/min", rpm)
    if data["setups"]:
        out["setup_s"] = metric(statistics.median(data["setups"]), "s", data["setups"])
    if data["rss_kb"]:
        rss = data["rss_kb"] / 1024.0
        out["peak_rss_mb"] = metric(rss, "MiB", [rss])
    share = data["failed"] / data["attempted"]
    out["failed_runs"] = metric(share, "share", [share])
    if runs:
        total = lambda key: sum(r[key] for r in runs)
        ratio = total("clcs") / total("sim_min")
        out["sim_clcs_per_min"] = metric(ratio, "CLCs/sim-min", [ratio])
        ratio = total("ctrl_bytes") / total("app_msgs")
        out["sim_ctrl_bytes_per_app_msg"] = metric(ratio, "B/msg", [ratio])
        latency = [ns / 1e6 for r in runs for ns in r.get("latency_ns", [])]
        if latency:
            p50 = statistics.median(latency)
            out["sim_recovery_p50_ms"] = metric(p50, "sim-ms", [p50])
        if len(latency) >= 100:
            p90 = statistics.quantiles(latency, n=10)[8]
            out["sim_recovery_p90_ms"] = metric(p90, "sim-ms", [p90])
        if total("faults"):
            ratio = total("rollback_nodes") / total("faults")
            out["sim_rollback_nodes_per_fault"] = metric(ratio, "nodes", [ratio])
        if total("stall_us"):
            ratio = total("stall_us") / 1e3 / total("clcs")
            out["sim_ckpt_stall_ms_per_clc"] = metric(ratio, "sim-ms", [ratio])
    return out


AGENT_CALLS = ("agent.app_send", "agent.on_message", "agent.on_failure_detected")
APP_CALLS = ("app.snapshot", "app.restore", "app.deliver")
PHASES = {"fed.construct": "fed.construct_ms", "app.workload": "app.workload_ms",
          "fed.build_agents": "fed.build_agents_ms", "fed.start": "fed.start_ms",
          "fault.arm": "fault.arm_ms", "audit": "proto.audit_ms"}


def traced_per_layer(traced):
    runs = [t for t in traced if t.get("ok")]
    out = {}
    if not runs:
        return out

    def per_run(name, unit, values):
        out[name] = metric(statistics.median(values), unit, values)

    def per_call(name, call, scale, unit):
        count = sum(t["calls"][call]["count"] for t in runs)
        if count:
            value = sum(t["calls"][call]["self_ns"] for t in runs) / count * scale
            out[name] = metric(value, unit, [value])

    phases = [{s[0]: s[2] - s[1] for s in t["spans"]} for t in runs]
    loops = [p["loop"] for p in phases]
    per_run("sim.events", "count", [t["events"] for t in runs])
    per_run("net.msgs", "count", [t["msgs"] for t in runs])
    per_run("hc3i.self_share", "share",
            [sum(t["calls"][k]["self_ns"] for k in AGENT_CALLS) / 1e9 / loop
             for t, loop in zip(runs, loops)])
    per_call("hc3i.on_message_ns", "agent.on_message", 1, "ns")
    per_call("hc3i.app_send_ns", "agent.app_send", 1, "ns")
    per_call("hc3i.on_failure_detected_us", "agent.on_failure_detected", 1e-3, "us")
    per_run("hc3i.calls", "count",
            [sum(t["calls"][k]["count"] for k in AGENT_CALLS + ("agent.start",)) for t in runs])
    per_call("app.deliver_ns", "app.deliver", 1, "ns")
    per_call("app.snapshot_ns", "app.snapshot", 1, "ns")
    per_call("app.restore_ns", "app.restore", 1, "ns")
    per_run("app.calls", "count", [sum(t["calls"][k]["count"] for k in APP_CALLS) for t in runs])
    for phase, name in PHASES.items():
        values = [p[phase] * 1e3 for p in phases if phase in p]
        if values:
            per_run(name, "ms", values)
    per_run("driver.loop_other_share", "share",
            [(loop - sum(t["calls"][k]["top_ns"] for k in AGENT_CALLS + APP_CALLS) / 1e9) / loop
             for t, loop in zip(runs, loops)])
    overhead = (statistics.median(t["traced_wall_s"] for t in runs) /
                statistics.median(t["untraced_wall_s"] for t in runs) - 1)
    out["driver.trace_overhead"] = metric(overhead, "share", [overhead])
    faulty = [t for t in runs if t["faults"]]
    if faulty:
        per_run("fault.injected", "count", [t["faults"] for t in faulty])
        per_run("fault.rollbacks", "count", [t["rollbacks"] for t in faulty])
        per_run("fault.queued", "count", [t["queued"] for t in faulty])
    written = sum(t["ckpt_written"] for t in runs)
    if written:
        saved = sum(t["ckpt_saved"] for t in runs)
        ratio = saved / (written + saved)
        out["storage.delta_saved_ratio"] = metric(ratio, "share", [ratio])
        rollbacks = sum(t["rollbacks"] for t in runs)
        if rollbacks:
            value = sum(t["recovery_read_us"] for t in runs) / 1e3 / rollbacks
            out["storage.recovery_read_ms"] = metric(value, "sim-ms", [value])
    return out


def summed_calls(traced):
    """Per-call aggregates of the traced runs, summed: count, total, self and
    top-level ns, and the log2-ns histogram of call durations."""
    out = {}
    for t in (t for t in traced if t.get("ok")):
        for kind, c in t["calls"].items():
            acc = out.setdefault(kind, {"count": 0, "total_ns": 0, "self_ns": 0,
                                        "top_ns": 0, "hist": []})
            for key in ("count", "total_ns", "self_ns", "top_ns"):
                acc[key] += c[key]
            acc["hist"] += [0] * (len(c["hist"]) - len(acc["hist"]))
            for i, n in enumerate(c["hist"]):
                acc["hist"][i] += n
    return out


def kernel_per_layer(kernels):
    out = {}
    for name, k in kernels.items():
        s = k["samples"]
        out[name] = dict(metric(statistics.median(s), k["unit"], s), min=min(s), max=max(s))
    return out


def batch_per_layer(data):
    out = {}
    if data["batches"]:
        b = data["batches"]
        busy = [x["busy_share"] for x in b]
        out["batch.busy_share"] = metric(statistics.median(busy), "share", busy)
        imb = [x["imbalance_s"] for x in b]
        out["batch.imbalance_s"] = metric(statistics.median(imb), "s", imb)
        reuse = [x["pool_reused"] / (x["pool_reused"] + x["pool_fresh"]) for x in b]
        out["batch.pool_reuse"] = metric(statistics.median(reuse), "share", reuse)
    return out


def spans_trace(traced_by_workload):
    """Coarse spans as Chrome trace JSON: one track per workload; each phase
    names its run and parent span in args."""
    starts = [t["spans"][0][1] for ts in traced_by_workload.values() for t in ts
              if t.get("spans")]
    events, t0, span_id = [], min(starts, default=0.0), 0
    for pid, (name, traced) in enumerate(traced_by_workload.items()):
        for t in traced:
            if not t.get("spans"):
                continue
            run_id = span_id + 1
            for i, (span, start, end) in enumerate(t["spans"]):
                span_id += 1
                label = span
                if i == 0:
                    label = "%s seed=%d" % (name, t["seed"])
                    label += "" if t["campaign"] == name else " " + t["campaign"]
                events.append({"name": label, "ph": "X", "pid": pid, "tid": 0,
                               "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                               "args": {"id": span_id, "run": run_id,
                                        "parent": None if i == 0 else run_id}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print("%-15s %-32s %-14.6g %-12s (n=%d)" % (workload, name, m["value"], m["unit"], m["n"]))


# --- main -------------------------------------------------------------------


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(contract, args):
    """One workload, driver interface: last stdout line is the JSON result."""
    name = args.workload
    checks = []
    if args.trace:
        traced = trace_pass(name, args.seed)
        kernels, checks = kernel_pass(args.seed)
        metrics = traced_per_layer(traced)
        metrics.update(kernel_per_layer(kernels))
        wanted = contract["per_layer"]
        attempted = len(traced) + 1
        failed = sum(1 for t in traced if not t["ok"]) + (0 if kernels else 1)
        checks.append(traced_check(name, traced))
        os.makedirs(RESULTS, exist_ok=True)
        spans = "%s-seed%d-%s.spans.json" % (git_sha(), args.seed, name)
        with open(os.path.join(RESULTS, spans), "w") as f:
            json.dump(spans_trace({name: traced}), f)
    else:
        data = measure(name, args.seed, args.seconds)
        metrics = end_to_end(data)
        checks = data["checks"]
        wanted = contract["end_to_end"]
        attempted, failed = data["attempted"], data["failed"]
    print_metrics(name, metrics)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for check in checks:
        if not check["ok"]:
            log("check failed: %s: %s" % (check["name"], check["detail"]))
    if missing:
        raise BenchError("%s: no value for %s" % (name, ", ".join(missing)))
    correct = all(c["ok"] for c in checks)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload untraced (then traced and the kernels with --traced);
    writes benchmark/results/<git-sha>-seed<N>.json."""
    report = {"fingerprint": fingerprint(), "seed": args.seed, "seconds": args.seconds,
              "workloads": {}, "checks": []}
    traced_all = {}
    for name in WORKLOADS:
        t = time.time()
        data = measure(name, args.seed, args.seconds)
        entry = {"end_to_end": end_to_end(data), "per_layer": batch_per_layer(data),
                 "attempted": data["attempted"], "failed": data["failed"]}
        report["checks"] += data["checks"]
        if args.trace:
            traced_all[name] = trace_pass(name, args.seed)
            entry["per_layer"].update(traced_per_layer(traced_all[name]))
            entry["calls"] = summed_calls(traced_all[name])
            report["checks"].append(traced_check(name, traced_all[name]))
        report["workloads"][name] = entry
        print_metrics(name, entry["end_to_end"])
        log("%s: %.1f s" % (name, time.time() - t))
    if args.trace:
        kernels, checks = kernel_pass(args.seed)
        report["kernels"] = kernel_per_layer(kernels)
        report["checks"] += checks
        for name, entry in report["workloads"].items():
            print_metrics(name, entry["per_layer"])
        print_metrics("kernels", report["kernels"])
    for check in report["checks"]:
        print("check %-60s %s%s" % (check["name"], "ok" if check["ok"] else "FAILED",
                                    "" if check["ok"] else ": " + check["detail"]))
    report["correct"] = all(c["ok"] for c in report["checks"])
    os.makedirs(RESULTS, exist_ok=True)
    base = os.path.join(RESULTS, "%s-seed%d" % (report["fingerprint"]["git_sha"], args.seed))
    path = base + ".json"
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    if args.trace:
        with open(base + ".spans.json", "w") as f:
            json.dump(spans_trace(traced_all), f)
    log("wrote " + os.path.relpath(path, ROOT))
    return 0 if report["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        contract = load_contract()
        build()
        if args.workload:
            return run_workload(contract, args)
        return run_all(args)
    except BenchError as e:
        log("benchmark: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
