#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json telemetry files; any moved value fails.

Every bench binary accepts `--json FILE` and writes a schema-versioned
report ("vread-bench/1") listing its headline metrics, each tagged with the
direction that counts as better ("higher" / "lower").  This tool diffs a
candidate set against a baseline set:

    tools/bench_compare.py bench/baseline out/

The simulator is deterministic, so the gate is exact: exit status is
non-zero when any shared metric differs from its baseline value in either
direction (an improvement too: a change that moves a modeled number
re-baselines it and lists the per-metric diff in CHANGES.md), and when a
baseline report or a baseline metric is missing from the candidate: a bench
that stops reporting must not pass the gate.  A candidate given as one file
is compared against that bench's baseline only.  Reports and metrics that
only the candidate has are listed as new, never fatal.

`--markdown` prints the same verdict as a Markdown table of every metric
that moved, went or is new (metric, baseline, candidate, delta %), ready to
paste into CHANGES.md; the exit status is the same as without it.

`--paper REPORTS` is the paper scorecard, report only: for every metric
that carries `paper_expected`, it prints the model's value, the paper's
value and whether their directions agree.  A value's direction is its sign
against the neutral point of its unit (1 for an `x` ratio, 0 otherwise), so
a 0% reduction where the paper reports 50% disagrees.  The exit status is
zero whatever the agreement.

`--self-test` runs the comparator against synthetic reports (a small move
each way, a regression, an improvement, a missing report, a missing metric)
and exits non-zero if the verdicts are wrong.
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


def delta_pct(bv, cv):
    if bv == 0.0:
        return float("inf") if cv > 0.0 else float("-inf")
    return (cv - bv) / abs(bv) * 100.0


def compare(baseline, candidate):
    """Returns (lines, failures, diffs): human-readable rows, the fatal
    count, and (metric, baseline value, candidate value) for every metric
    that moved, went or is new, a missing side being None."""
    lines = []
    failures = 0
    diffs = []
    for bench in sorted(set(baseline) | set(candidate)):
        base_m = metric_map(baseline[bench]) if bench in baseline else {}
        cand_m = metric_map(candidate[bench]) if bench in candidate else {}
        if bench not in candidate:
            lines.append(f"[GONE] {bench}: baseline report missing from candidate")
            failures += 1
            diffs += [(f"{bench}.{n}", float(m["value"]), None) for n, m in sorted(base_m.items())]
            continue
        if bench not in baseline:
            lines.append(f"[new]  {bench}: present only in candidate")
            diffs += [(f"{bench}.{n}", None, float(m["value"])) for n, m in sorted(cand_m.items())]
            continue
        for name in sorted(set(base_m) | set(cand_m)):
            if name not in cand_m:
                lines.append(f"[GONE] {bench}.{name}: baseline metric missing from candidate")
                failures += 1
                diffs.append((f"{bench}.{name}", float(base_m[name]["value"]), None))
                continue
            if name not in base_m:
                lines.append(f"[new]  {bench}.{name} = {cand_m[name]['value']}")
                diffs.append((f"{bench}.{name}", None, float(cand_m[name]["value"])))
                continue
            b, c = base_m[name], cand_m[name]
            bv, cv = float(b["value"]), float(c["value"])
            better = b.get("better", "higher")
            unit = b.get("unit", "")
            if cv == bv:
                lines.append(f"[ok]   {bench}.{name}: {bv:g} {unit}")
                continue
            failures += 1
            diffs.append((f"{bench}.{name}", bv, cv))
            improved = cv > bv if better == "higher" else cv < bv
            lines.append(
                f"[MOVE] {bench}.{name}: {bv:g} -> {cv:g} {unit} "
                f"({delta_pct(bv, cv):+.2f}%, {'better' if improved else 'worse'}, better={better})"
            )
    return lines, failures, diffs


def markdown_table(diffs):
    """The diffs of compare() as Markdown table lines."""
    out = ["| metric | baseline | candidate | Δ % |", "|---|---:|---:|---:|"]
    for name, bv, cv in diffs:
        delta = "—" if bv is None or cv is None else f"{delta_pct(bv, cv):+.2f}"
        base = "—" if bv is None else f"{bv:g}"
        cand = "—" if cv is None else f"{cv:g}"
        out.append(f"| `{name}` | {base} | {cand} | {delta} |")
    return out


def direction(value, unit):
    """-1, 0 or +1: the sign of `value` against its unit's neutral point."""
    neutral = 1.0 if unit == "x" else 0.0
    return (value > neutral) - (value < neutral)


def paper_scorecard(reports):
    """Returns (lines, agreeing, total) for every metric of `reports` that
    carries a paper_expected value."""
    lines = []
    agree = total = 0
    for bench in sorted(reports):
        for m in reports[bench].get("metrics", []):
            if "paper_expected" not in m:
                continue
            value, paper = float(m["value"]), float(m["paper_expected"])
            unit = m.get("unit", "")
            same = direction(value, unit) == direction(paper, unit)
            total += 1
            agree += same
            lines.append(f"[{'agree' if same else 'DIFF '}] {bench}.{m['name']}: "
                         f"{value:g} {unit} (paper {paper:g} {unit})")
    return lines, agree, total


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
    _, n, _ = compare(base, {"b": report("b", 100.0, "higher")})
    assert n == 0, "identical sets must pass"
    # Regression on a higher-is-better metric: fatal.
    _, n, _ = compare(base, {"b": report("b", 80.0, "higher")})
    assert n == 1, "20% throughput drop must be flagged"
    # A small move either way: fatal (the gate is exact).
    _, n, _ = compare(base, {"b": report("b", 100.5, "higher")})
    assert n == 1, "a +0.5% move must be flagged"
    _, n, _ = compare(base, {"b": report("b", 99.5, "higher")})
    assert n == 1, "a -0.5% move must be flagged"
    # Improvement: fatal too, until the baseline is refreshed.
    _, n, _ = compare(base, {"b": report("b", 120.0, "higher")})
    assert n == 1, "an improvement must be flagged"
    lat = {"b": report("b", 10.0, "lower")}
    _, n, _ = compare(lat, {"b": report("b", 9.0, "lower")})
    assert n == 1, "a latency improvement must be flagged"
    # Lower-is-better metric moving up: fatal.
    _, n, _ = compare(lat, {"b": report("b", 12.0, "lower")})
    assert n == 1, "20% latency increase must be flagged"
    # A zero baseline that moves: fatal.
    zero = {"b": report("b", 0.0, "lower")}
    _, n, _ = compare(zero, {"b": report("b", 1e-9, "lower")})
    assert n == 1, "a zero baseline that moves must be flagged"
    # Baseline metric missing from the candidate report: fatal.
    _, n, _ = compare(base, {"b": {"schema": SCHEMA, "bench": "b", "metrics": []}})
    assert n == 1, "a metric that drops out of a report must be flagged"
    # Baseline report missing from the candidate set: fatal.
    two = {"a": report("a", 5.0, "lower"), "b": report("b", 100.0, "higher")}
    _, n, _ = compare(two, {"b": report("b", 100.0, "higher")})
    assert n == 1, "a report missing from the candidate must be flagged"
    _, n, _ = compare(two, {})
    assert n == 2, "an empty candidate set must fail for every baseline report"
    # New report or metric only in the candidate: informational.
    extra = report("b", 100.0, "higher")
    extra["metrics"].append({"name": "new", "value": 1.0, "better": "lower"})
    _, n, _ = compare(base, {"b": extra, "c": report("c", 1.0, "higher")})
    assert n == 0, "new reports and metrics are informational"
    # The Markdown table lists exactly the moved, gone and new metrics.
    moved = {"b": report("b", 110.0, "higher"), "d": report("d", 3.0, "lower")}
    moved["b"]["metrics"].append({"name": "new", "value": 2.0, "better": "lower"})
    _, n, diffs = compare({"b": report("b", 100.0, "higher"), "a": report("a", 5.0, "lower"),
                           "d": report("d", 3.0, "lower")}, moved)
    assert n == 2, "the table does not change the verdict"
    assert markdown_table(diffs) == [
        "| metric | baseline | candidate | Δ % |",
        "|---|---:|---:|---:|",
        "| `a.throughput` | 5 | — | — |",
        "| `b.new` | — | 2 | — |",
        "| `b.throughput` | 100 | 110 | +10.00 |",
    ], "the Markdown table must list each moved, gone and new metric once"
    # The paper scorecard: a direction is a sign against the unit's
    # neutral point, and metrics without a paper value are skipped.
    card = report("b", 0.0, "higher")
    card["metrics"] = [
        {"name": "gain", "value": 12.0, "unit": "%", "better": "higher", "paper_expected": 40},
        {"name": "flat", "value": 0.0, "unit": "%", "better": "higher", "paper_expected": 50},
        {"name": "speedup", "value": 0.9, "unit": "x", "better": "higher", "paper_expected": 2},
        {"name": "plain", "value": 3.0, "unit": "ms", "better": "lower"},
    ]
    lines, agree, total = paper_scorecard({"b": card})
    assert (agree, total) == (1, 3), "one of three paper metrics agrees in direction"
    assert lines[0] == "[agree] b.gain: 12 % (paper 40 %)", lines[0]
    assert lines[2] == "[DIFF ] b.speedup: 0.9 x (paper 2 x)", lines[2]
    print("bench_compare self-test: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?", help="baseline dir or BENCH_*.json file")
    ap.add_argument("candidate", nargs="?", help="candidate dir or BENCH_*.json file")
    ap.add_argument("--markdown", action="store_true",
                    help="print the moved, gone and new metrics as a Markdown table")
    ap.add_argument("--paper", action="store_true",
                    help="print the paper scorecard of the reports in BASELINE and exit 0")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the comparator's own verdicts and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.paper:
        if not args.baseline or args.candidate:
            ap.error("--paper takes one reports dir or BENCH_*.json file")
        lines, agree, total = paper_scorecard(load_reports(args.baseline))
        for line in lines:
            print(line)
        print(f"\n{agree} of {total} paper metrics agree in direction")
        return 0
    if not args.baseline or not args.candidate:
        ap.error("baseline and candidate are required (or use --self-test)")

    baseline = load_reports(args.baseline)
    candidate = load_reports(args.candidate)
    if not baseline:
        raise SystemExit(f"no BENCH_*.json reports under {args.baseline}")
    if os.path.isfile(args.candidate):
        baseline = {k: v for k, v in baseline.items() if k in candidate}
    lines, failures, diffs = compare(baseline, candidate)
    for line in markdown_table(diffs) if args.markdown else lines:
        print(line)
    if failures:
        print(f"\n{failures} failure(s): a metric moved from its baseline value, "
              f"or a baseline report or metric is missing")
        return 1
    print("\nevery baseline metric reproduced exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
