#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json telemetry files and flag regressions.

Every bench binary accepts `--json FILE` and writes a schema-versioned
report ("vread-bench/1") listing its headline metrics, each tagged with the
direction that counts as better ("higher" / "lower").  This tool diffs a
candidate set against a baseline set:

    tools/bench_compare.py bench/baseline out/ [--tolerance 2.0]

Exit status is non-zero when any shared metric moved in the worse direction
by more than the tolerance (percent), and when a baseline report or a
baseline metric is missing from the candidate: a bench that stops reporting
must not pass the gate.  A candidate given as one file is compared against
that bench's baseline only.  Reports and metrics that only the candidate
has are listed as new, never fatal.  The simulator is deterministic, so
the default tolerance is tight; it exists for intentional model retunes,
not for noise.

`--self-test` runs the comparator against synthetic reports (an injected
regression, a missing report, a missing metric) and exits non-zero if the
verdicts are wrong.
"""

import argparse
import json
import os
import sys

SCHEMA = "vread-bench/1"


def load_reports(path):
    """Maps bench name -> report dict for every BENCH_*.json under path."""
    reports = {}
    if os.path.isfile(path):
        candidates = [path]
    else:
        candidates = [
            os.path.join(path, f)
            for f in sorted(os.listdir(path))
            if f.startswith("BENCH_") and f.endswith(".json")
        ]
    for f in candidates:
        with open(f, encoding="utf-8") as fh:
            rep = json.load(fh)
        schema = rep.get("schema")
        if schema != SCHEMA:
            raise SystemExit(f"{f}: unsupported schema {schema!r} (want {SCHEMA!r})")
        reports[rep["bench"]] = rep
    return reports


def metric_map(report):
    return {m["name"]: m for m in report.get("metrics", [])}


def compare(baseline, candidate, tolerance):
    """Returns (lines, regressions): human-readable rows and fatal count."""
    lines = []
    regressions = 0
    for bench in sorted(set(baseline) | set(candidate)):
        if bench not in candidate:
            lines.append(f"[GONE] {bench}: baseline report missing from candidate")
            regressions += 1
            continue
        if bench not in baseline:
            lines.append(f"[new]  {bench}: present only in candidate")
            continue
        base_m = metric_map(baseline[bench])
        cand_m = metric_map(candidate[bench])
        for name in sorted(set(base_m) | set(cand_m)):
            if name not in cand_m:
                lines.append(f"[GONE] {bench}.{name}: baseline metric missing from candidate")
                regressions += 1
                continue
            if name not in base_m:
                lines.append(f"[new]  {bench}.{name} = {cand_m[name]['value']}")
                continue
            b, c = base_m[name], cand_m[name]
            bv, cv = float(b["value"]), float(c["value"])
            better = b.get("better", "higher")
            unit = b.get("unit", "")
            if bv == 0.0:
                delta_pct = 0.0 if cv == 0.0 else float("inf")
            else:
                delta_pct = (cv - bv) / abs(bv) * 100.0
            worse = delta_pct < -tolerance if better == "higher" else delta_pct > tolerance
            tag = "REGR" if worse else "ok"
            if worse:
                regressions += 1
            lines.append(
                f"[{tag:4}] {bench}.{name}: {bv:g} -> {cv:g} {unit} "
                f"({delta_pct:+.2f}%, better={better}, tol={tolerance}%)"
            )
    return lines, regressions


def self_test():
    def report(bench, value, better):
        return {
            "schema": SCHEMA,
            "bench": bench,
            "metrics": [
                {"name": "throughput", "value": value, "unit": "MB/s", "better": better}
            ],
        }

    # Identical sets: clean.
    base = {"b": report("b", 100.0, "higher")}
    _, n = compare(base, {"b": report("b", 100.0, "higher")}, 2.0)
    assert n == 0, "identical sets must not regress"
    # Injected regression on a higher-is-better metric: fatal.
    _, n = compare(base, {"b": report("b", 80.0, "higher")}, 2.0)
    assert n == 1, "20% throughput drop must be flagged"
    # Improvement: clean.
    _, n = compare(base, {"b": report("b", 120.0, "higher")}, 2.0)
    assert n == 0, "improvement must not be flagged"
    # Lower-is-better metric moving up: fatal.
    lat = {"b": report("b", 10.0, "lower")}
    _, n = compare(lat, {"b": report("b", 12.0, "lower")}, 2.0)
    assert n == 1, "20% latency increase must be flagged"
    # Within tolerance: clean.
    _, n = compare(base, {"b": report("b", 99.0, "higher")}, 2.0)
    assert n == 0, "1% wiggle inside tolerance must pass"
    # Baseline metric missing from the candidate report: fatal.
    _, n = compare(base, {"b": {"schema": SCHEMA, "bench": "b", "metrics": []}}, 2.0)
    assert n == 1, "a metric that drops out of a report must be flagged"
    # Baseline report missing from the candidate set: fatal.
    two = {"a": report("a", 5.0, "lower"), "b": report("b", 100.0, "higher")}
    _, n = compare(two, {"b": report("b", 100.0, "higher")}, 2.0)
    assert n == 1, "a report missing from the candidate must be flagged"
    _, n = compare(two, {}, 2.0)
    assert n == 2, "an empty candidate set must fail for every baseline report"
    # New report or metric only in the candidate: informational.
    extra = report("b", 100.0, "higher")
    extra["metrics"].append({"name": "new", "value": 1.0, "better": "lower"})
    _, n = compare(base, {"b": extra, "c": report("c", 1.0, "higher")}, 2.0)
    assert n == 0, "new reports and metrics are informational"
    print("bench_compare self-test: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?", help="baseline dir or BENCH_*.json file")
    ap.add_argument("candidate", nargs="?", help="candidate dir or BENCH_*.json file")
    ap.add_argument("--tolerance", type=float, default=2.0,
                    help="allowed movement in the worse direction, percent (default 2)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the comparator's own verdicts and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        ap.error("baseline and candidate are required (or use --self-test)")

    baseline = load_reports(args.baseline)
    candidate = load_reports(args.candidate)
    if not baseline:
        raise SystemExit(f"no BENCH_*.json reports under {args.baseline}")
    if os.path.isfile(args.candidate):
        baseline = {k: v for k, v in baseline.items() if k in candidate}
    lines, regressions = compare(baseline, candidate, args.tolerance)
    for line in lines:
        print(line)
    if regressions:
        print(f"\n{regressions} failure(s): a metric worse by more than "
              f"{args.tolerance}%, or a baseline report or metric missing")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
