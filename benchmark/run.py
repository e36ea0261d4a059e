#!/usr/bin/env python3
"""Repository benchmark runner (see benchmark/README.md).

Builds the benchmark project, runs workloads one at a time in fresh
processes, checks every output, aggregates medians and quartiles, and
compares result sets.

  python3 benchmark/run.py                         full set -> .bench_build/results.json
  python3 benchmark/run.py --workload W --seed N --seconds T --trace 0|1
                                                   one measured run; the last stdout
                                                   line is its JSON result
  python3 benchmark/run.py --compare BASE.json NEW.json
  python3 benchmark/run.py --self-test [--binary PATH]

The full set runs each workload `repeats` times untraced, enough extra
set-ups for `min_setups` set-up timings, one traced pass, the SLO ladder on
pread-open-loop and the host-time layer probes. It exits non-zero on any
wrong byte and when sim.events, the dispatch digest or any modeled metric
differs between repeats or between the traced and untraced runs.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "benchmark"
BINARY = BUILD_DIR / "vread_benchmark"
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_config():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "spec.json") as f:
        spec = json.load(f)
    return bench, spec


def build():
    """Configures and builds the benchmark binary; output to stderr. The
    compiler's temporary files stay inside the build tree too."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "vread_benchmark", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return BINARY


def child_env(extra=None):
    """The caller's environment without injected faults, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VREAD_FAULT_")}
    env.update(extra or {})
    return env


def run_binary(binary, args, env=None):
    """Runs one benchmark process and returns its parsed JSON line."""
    cmd = [str(binary)] + [str(a) for a in args]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=child_env(env),
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("no result from %s (exit %d): %s"
                         % (" ".join(cmd), p.returncode, p.stderr.strip()[-2000:]))
    if out.get("bad_bytes", 0) != 0:
        raise BenchError("wrong bytes (%d) from %s" % (out["bad_bytes"], " ".join(cmd)))
    if p.returncode != 0:
        raise BenchError("exit %d from %s" % (p.returncode, " ".join(cmd)))
    return out


def is_host_time(name, spec):
    """Metrics of host time or memory: noisy, left out of determinism checks."""
    return (name in spec["simulator_metrics"] or name == "sim.host_ns_per_event"
            or name.startswith(("setup.", "trace.")))


def fingerprint(out, spec):
    """Everything a run computes in simulated time; must repeat exactly."""
    modeled = {k: v for k, v in out["metrics"].items() if not is_host_time(k, spec)}
    return (out["digest"], out["attempted"], out["failed"], json.dumps(modeled, sort_keys=True))


def check_same(runs, spec, what):
    prints = {fingerprint(r, spec) for r in runs}
    if len(prints) != 1:
        first = runs[0]["metrics"]
        diff = sorted(k for r in runs[1:] for k, v in r["metrics"].items()
                      if not is_host_time(k, spec) and first.get(k) != v)
        raise BenchError("%s differ in simulated results (%s)"
                         % (what, ", ".join(diff[:8]) or "digest/attempted/failed"))


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def slo_ladder(binary, seed, spec):
    """Highest ladder rate meeting the tail limit without a growing backlog.
    Every rung simulates the same span of arrivals, so it meets the same GC
    windows; the search assumes outcomes are monotonic in the rate."""
    lad = spec["ladder"]
    rates = lad["rates_rps"]

    def meets(rate):
        m = run_binary(binary, ["--workload", lad["workload"], "--seed", seed,
                                "--rate", rate, "--span", lad["span_s"]])["metrics"]
        ok = (m["read_tail_ms"] <= lad["tail_limit_ms"]
              and m["workload.backlog_ratio"] <= lad["backlog_limit"])
        log("  ladder %5d/s: tail %.2f ms, backlog x%.3f -> %s"
            % (rate, m["read_tail_ms"], m["workload.backlog_ratio"], "ok" if ok else "miss"))
        return ok

    lo, hi = -1, len(rates)  # rates[lo] meets (or none), rates[hi] misses (or none)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(rates[mid]):
            lo = mid
        else:
            hi = mid
    return float(rates[lo]) if lo >= 0 else 0.0


def measure(binary, workload, seed, spec, *, seconds=None, trace=False, probe_seconds=None):
    """Untraced repeats (at least spec repeats, and until `seconds` passed),
    extra set-ups up to spec min_setups, and with `trace` the traced pass,
    the ladder and the probes. Returns {"runs", "setups", "traced",
    "probes", "slo_rate_rps"}."""
    base = ["--workload", workload, "--seed", seed]
    t0 = time.monotonic()
    runs = []
    while len(runs) < spec["repeats"] or (seconds and time.monotonic() - t0 < seconds):
        runs.append(run_binary(binary, base))
    check_same(runs, spec, "%s repeats" % workload)
    setups = [r["metrics"]["setup_s"] for r in runs]
    while len(setups) < spec["min_setups"]:
        setups.append(run_binary(binary, base + ["--setup-only"])["metrics"]["setup_s"])
    result = {"runs": runs, "setups": setups, "traced": None, "probes": None,
              "slo_rate_rps": 0.0}
    if trace:
        traced = run_binary(binary, base + ["--trace"])
        check_same([runs[0], traced], spec, "%s traced and untraced runs" % workload)
        result["traced"] = traced
        if probe_seconds:
            result["probes"] = run_binary(binary, ["--probes", probe_seconds])["metrics"]
        if workload == spec["ladder"]["workload"]:
            result["slo_rate_rps"] = slo_ladder(binary, seed, spec)
    return result


def summarize(m, bench, spec):
    """Per-metric samples for one workload measurement: every metric the
    runs report, plus the traced, probe and ladder metrics."""
    samples = {}
    for r in m["runs"]:
        for k, v in r["metrics"].items():
            samples.setdefault(k, []).append(v)
    samples["setup_s"] = list(m["setups"])
    if m["traced"]:
        walls = samples["wall_s"]
        for k, v in m["traced"]["metrics"].items():
            if k.startswith("trace."):
                samples[k] = [v]
        samples["trace.overhead_pct"] = [
            100.0 * (m["traced"]["metrics"]["wall_s"] / statistics.median(walls) - 1.0)]
    for k, v in (m["probes"] or {}).items():
        samples[k] = [v]
    samples["workload.slo_rate_rps"] = [m["slo_rate_rps"]]
    units = {e["name"]: e["unit"] for e in bench["end_to_end"] + bench["per_layer"]}
    out = {}
    for k, vals in samples.items():
        q1, med, q3 = quartiles(vals)
        out[k] = {"median": med, "q1": q1, "q3": q3, "unit": units.get(k, ""),
                  "samples": vals}
    return out


# ---- one measured run -------------------------------------------------------

def single_run(args, bench, spec):
    binary = build()
    m = measure(binary, args.workload, args.seed, spec, seconds=args.seconds,
                trace=bool(args.trace), probe_seconds=spec["probe_seconds"]["per_run"])
    stats = summarize(m, bench, spec)
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for e in names:
        value = stats[e["name"]]["median"] if e["name"] in stats else 0.0
        metrics[e["name"]] = {"value": value, "unit": e["unit"]}
        log("%-36s %16.6g %s" % (e["name"], value, e["unit"]))
    runs = m["runs"]
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))


# ---- full set ---------------------------------------------------------------

def full_set(args, bench, spec):
    binary = Path(args.binary) if args.binary else build()
    t0 = time.monotonic()
    results = {"schema": "vread-benchmark/1", "seed": args.seed,
               "repeats": spec["repeats"], "cpus": os.cpu_count(), "workloads": {}}
    probes = None
    for w in bench["workloads"]:
        name = w["name"]
        log("== %s (seed %d)" % (name, args.seed))
        m = measure(binary, name, args.seed, spec, trace=True,
                    probe_seconds=None if probes else spec["probe_seconds"]["full_set"])
        probes = probes or m["probes"]
        m["probes"] = probes
        first = m["runs"][0]
        results["workloads"][name] = {
            "digest": first["digest"], "attempted": first["attempted"],
            "failed": first["failed"], "metrics": summarize(m, bench, spec)}
        print_workload(name, results["workloads"][name], bench)
    results["elapsed_s"] = time.monotonic() - t0
    out = Path(args.out) if args.out else ROOT / ".bench_build" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    log("all bytes verified; simulated results repeat exactly; %.0f s; wrote %s"
        % (results["elapsed_s"], out))


def print_workload(name, res, bench):
    stats = res["metrics"]
    print("\n%s  (digest %s, %d reads, %d failed)"
          % (name, res["digest"], res["attempted"], res["failed"]))
    for section, entries in (("end to end", bench["end_to_end"]),
                             ("per layer", bench["per_layer"])):
        print("  -- %s" % section)
        for e in entries:
            s = stats.get(e["name"])
            if s is None:
                continue
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print("  %-36s %14.6g %-8s  q1 %-12.6g q3 %-12.6g spread %.2f%%"
                  % (e["name"], s["median"], e["unit"], s["q1"], s["q3"], 100 * spread))
    print("  read_tail_ms is p%g of %d reads"
          % (stats["workload.read_tail_pct"]["median"], res["attempted"]))


# ---- comparison -------------------------------------------------------------

def gated_metrics(bench, spec, workload):
    """(name, better, bound) of every metric compared on `workload`."""
    gated = [(e["name"], e["better"], e["bound"]) for e in bench["end_to_end"]]
    gated += [(e["name"], e["better"], e["bound"]) for e in spec["workload_metrics"]
              if workload in e["workloads"]]
    return gated


def verdict(base, new, better, bound):
    """regression / improvement / within / unresolved for one metric: the
    change of the median against the bound, unresolved when either side's
    quartile spread exceeds the bound (unless every new sample beats every
    base sample)."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse

    def spread(s):
        return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0

    delta = new["median"] - base["median"]
    if base["median"]:
        change = sign * delta / abs(base["median"])
    else:  # e.g. a fail ratio leaving 0: any move is infinitely large
        change = sign * math.copysign(math.inf, delta) if delta else 0.0
    if max(spread(base), spread(new)) > bound:
        worst_new = max(new["samples"]) if better == "lower" else min(new["samples"])
        best_base = min(base["samples"]) if better == "lower" else max(base["samples"])
        if sign * (worst_new - best_base) < 0:
            return "improvement", change
        return "unresolved", change
    if change > bound:
        return "regression", change
    if change < -bound:
        return "improvement", change
    return "within", change


def compare(base, new, bench, spec, out=sys.stdout):
    """Prints one row per workload; returns the number of regressions."""
    regressions = 0
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            print("%-16s missing from one side" % name, file=out)
            regressions += 1
            continue
        a, b = base["workloads"][name]["metrics"], new["workloads"][name]["metrics"]
        cells, worst = [], "within"
        for metric, better, bound in gated_metrics(bench, spec, name):
            v, change = verdict(a[metric], b[metric], better, bound)
            mark = {"within": "=", "improvement": "+", "regression": "!",
                    "unresolved": "?"}[v]
            cells.append("%s %s%+.2f%%" % (metric, mark, 100 * change))
            if v == "regression":
                regressions += 1
                worst = v
            elif v == "unresolved" and worst != "regression":
                worst = v
        digest = "same digest" if (base["workloads"][name]["digest"]
                                   == new["workloads"][name]["digest"]) else "digest changed"
        print("%-16s %-11s %s | %s" % (name, worst, digest, "  ".join(cells)), file=out)
    return regressions


# ---- self-test ----------------------------------------------------------------

def synthetic(median, spread=0.0, samples=None):
    half = median * spread / 2
    return {"median": median, "q1": median - half, "q3": median + half,
            "samples": samples or [median - half, median, median + half]}


def self_test(args, bench, spec):
    binary = Path(args.binary) if args.binary else build()
    failures = []

    def expect(cond, what):
        log(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    # 1. comparator verdicts on synthetic results
    cases = [
        ("regression", synthetic(100.0), synthetic(90.0), "higher", 0.05),
        ("improvement", synthetic(100.0), synthetic(80.0), "lower", 0.05),
        ("within", synthetic(100.0), synthetic(101.0), "higher", 0.05),
        ("unresolved", synthetic(100.0, 0.2, [90, 100, 110]),
         synthetic(95.0, 0.2, [85, 95, 105]), "higher", 0.05),
        ("improvement", synthetic(100.0, 0.2, [95, 100, 105]),
         synthetic(80.0, 0.2, [78, 80, 82]), "lower", 0.05),
        ("regression", synthetic(0.0), synthetic(0.001), "lower", 0.0),  # fail ratio up
        ("within", synthetic(0.0), synthetic(0.0), "lower", 0.0),
    ]
    for want, a, b, better, bound in cases:
        got, _ = verdict(a, b, better, bound)
        expect(got == want, "verdict %s (got %s)" % (want, got))
    base = {"workloads": {}}
    for w in bench["workloads"]:
        base["workloads"][w["name"]] = {"digest": "d", "metrics": {
            metric: synthetic(0.0 if metric == "workload.read_fail_ratio" else 1.0)
            for metric, _, _ in gated_metrics(bench, spec, w["name"])}}
    worse = json.loads(json.dumps(base))
    worse["workloads"]["pread-open-loop"]["metrics"]["workload.read_fail_ratio"] = \
        synthetic(0.01)
    with open(os.devnull, "w") as sink:
        expect(compare(base, base, bench, spec, sink) == 0, "compare: identical sets pass")
        expect(compare(base, worse, bench, spec, sink) == 1,
               "compare: a fail-ratio increase is one regression")

    # 2. smoke pass of every workload
    t0 = time.monotonic()
    for w in bench["workloads"]:
        runs = [run_binary(binary, ["--workload", w["name"], "--seed", args.seed,
                                    "--smoke"] + extra) for extra in ([], ["--trace"])]
        try:
            check_same(runs, spec, w["name"] + " smoke traced/untraced")
            same = True
        except BenchError:
            same = False
        expect(same and runs[0]["failed"] == 0,
               "smoke %s: bytes verified, no failures, traced == untraced" % w["name"])
    took = time.monotonic() - t0
    expect(took < 20.0, "smoke pass in %.1f s (< 20 s)" % took)

    # 3. pread-open-loop under the chaos schedule of the faults-chaos preset
    presets = json.loads((ROOT / "CMakePresets.json").read_text())
    chaos = next(p for p in presets["testPresets"] if p["name"] == "faults-chaos")
    out = run_binary(binary, ["--workload", "pread-open-loop", "--seed", args.seed,
                              "--smoke"], env=chaos["environment"])
    m = out["metrics"]
    expect(m["hdfs.fallback_reads"] > 0 and m["core.lib.retries"] > 0,
           "chaos: fallback_reads %d, lib retries %d (both > 0)"
           % (m["hdfs.fallback_reads"], m["core.lib.retries"]))
    expect(out["bad_bytes"] == 0, "chaos: every delivered byte verified")
    expect(m["workload.read_fail_ratio"] == out["failed"] / out["attempted"],
           "chaos: %d thrown reads counted in read_fail_ratio" % out["failed"])

    if failures:
        log("self-test: %d failed" % len(failures))
        sys.exit(1)
    log("self-test: all passed")


# ---- entry point ----------------------------------------------------------------

def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--binary", help="use this vread_benchmark instead of building")
    p.add_argument("--out", help="results file of the full set")
    args = p.parse_args()
    bench, spec = load_config()
    if args.seed is None:
        args.seed = spec["default_seed"]
    try:
        if args.compare:
            base, new = (json.loads(Path(f).read_text()) for f in args.compare)
            sys.exit(1 if compare(base, new, bench, spec) else 0)
        elif args.self_test:
            self_test(args, bench, spec)
        elif args.workload:
            single_run(args, bench, spec)
        else:
            full_set(args, bench, spec)
    except BenchError as e:
        log("benchmark failed: %s" % e)
        sys.exit(1)


if __name__ == "__main__":
    main()
