#!/usr/bin/env python3
"""Diff two BENCH_*.json files and fail on throughput regressions.

The bench binaries (bench_serving, bench_cluster,
bench_remap_throughput, bench_lookup, bench_movement, ...) all emit the
standardized `BenchJson` schema:

    {"experiment": "...",
     "tiers": [{"ops": N, ..., "paths": {"<path>": {"<metric>": v, ...}}}]}

This script compares a baseline document against a candidate and exits
non-zero when any *throughput* metric (a key ending in `_per_second`, or
`rps`) regresses by more than the threshold (default 15%). Non-throughput
metrics are reported for context but never fail the run — latency and CoV
figures are noisy on shared hosts; throughput is the tracked contract.

Usage:
    bench_regress.py BASELINE.json CANDIDATE.json [--threshold 0.15]
                     [--verbose] [--require BENCH_x.json ...]
    bench_regress.py --require BENCH_x.json [--require BENCH_y.json ...]

`--require PATH` (repeatable) asserts that PATH exists and parses as a
BenchJson document — the CI guard against a bench silently not running,
which would otherwise make a perf regression look like a clean diff. With
only `--require` flags the positional pair may be omitted; requirements
are checked first and any miss fails the run before the diff.

Documents carry a `"host"` object (CPU model, core count, cpufreq
governor, kernel). A baseline and candidate from different hosts or
governor settings are compared anyway — but with a warning, since the
numbers are not really comparable.

Tiers are matched by their position-independent identity: the `ops` value
plus every string-valued label in the tier (e.g. `scenario`). Tiers, paths
or metric keys present on only one side are warned about but never fail
the diff — a new PR may add paths or whole documents (BENCH_cluster.json's
migration tiers, for instance, carry no throughput metrics at all), and
the driver compares like against like. Having *zero* throughput metrics
in common is likewise a warning, not an error.
"""

import argparse
import json
import os
import sys


def tier_key(tier):
    """Identity of a tier: ops plus all string labels, order-insensitive."""
    labels = tuple(sorted(
        (k, v) for k, v in tier.items() if isinstance(v, str)))
    return (tier.get("ops"), labels)


def is_throughput_metric(name):
    return name.endswith("_per_second") or name.endswith("rps")


def iter_metrics(tier):
    """Yields (path, metric, value) for every numeric path metric."""
    for path, metrics in tier.get("paths", {}).items():
        for name, value in metrics.items():
            if isinstance(value, (int, float)):
                yield path, name, float(value)


def check_required(paths):
    """Returns the list of problems with the required documents."""
    problems = []
    for path in paths:
        if not os.path.exists(path):
            problems.append(f"{path}: missing (bench did not run?)")
            continue
        try:
            with open(path) as f:
                document = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            problems.append(f"{path}: unreadable ({error})")
            continue
        if "experiment" not in document or "tiers" not in document:
            problems.append(
                f"{path}: not a BenchJson document "
                f"(no experiment/tiers keys)")
    return problems


def main():
    parser = argparse.ArgumentParser(
        description="Fail when a candidate BENCH_*.json regresses "
                    "throughput vs. a baseline, or when a required "
                    "document is missing.")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="baseline BENCH_*.json")
    parser.add_argument("candidate", nargs="?", default=None,
                        help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed fractional throughput drop "
                             "(default: 0.15 = 15%%)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="PATH",
                        help="fail unless PATH exists and parses as a "
                             "BenchJson document (repeatable)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every compared metric, not just "
                             "regressions")
    args = parser.parse_args()

    problems = check_required(args.require)
    if problems:
        print(f"FAIL: {len(problems)} required bench document(s) not "
              f"usable:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if args.require:
        print(f"required: all {len(args.require)} bench document(s) "
              f"present")

    if args.baseline is None and args.candidate is None:
        if not args.require:
            parser.error("nothing to do: give BASELINE CANDIDATE, "
                         "--require, or both")
        return 0
    if args.baseline is None or args.candidate is None:
        parser.error("BASELINE and CANDIDATE must be given together")

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.candidate) as f:
        candidate = json.load(f)

    if baseline.get("experiment") != candidate.get("experiment"):
        print(f"warning: comparing different experiments "
              f"({baseline.get('experiment')!r} vs. "
              f"{candidate.get('experiment')!r})", file=sys.stderr)

    base_host = baseline.get("host", {})
    cand_host = candidate.get("host", {})
    if base_host and cand_host:
        for field in ("cpu", "governor", "kernel"):
            if base_host.get(field) != cand_host.get(field):
                print(f"warning: host {field} differs "
                      f"({base_host.get(field)!r} vs. "
                      f"{cand_host.get(field)!r}); numbers may not be "
                      f"comparable", file=sys.stderr)

    base_tiers = {tier_key(t): t for t in baseline.get("tiers", [])}
    cand_tiers = {tier_key(t): t for t in candidate.get("tiers", [])}

    regressions = []
    compared = 0
    for key, base_tier in base_tiers.items():
        cand_tier = cand_tiers.get(key)
        tier_name = f"ops={key[0]}" + "".join(
            f" {k}={v}" for k, v in key[1])
        if cand_tier is None:
            print(f"note: tier [{tier_name}] missing from candidate",
                  file=sys.stderr)
            continue
        cand_metrics = {(p, m): v for p, m, v in iter_metrics(cand_tier)}
        for path, metric, base_value in iter_metrics(base_tier):
            cand_value = cand_metrics.get((path, metric))
            if cand_value is None:
                if is_throughput_metric(metric):
                    print(f"warning: [{tier_name}] {path}.{metric} present "
                          f"only in the baseline", file=sys.stderr)
                continue
            throughput = is_throughput_metric(metric)
            if throughput and base_value > 0:
                compared += 1
                drop = (base_value - cand_value) / base_value
                status = "REGRESSION" if drop > args.threshold else "ok"
                if drop > args.threshold:
                    regressions.append(
                        (tier_name, path, metric, base_value, cand_value,
                         drop))
                if args.verbose or drop > args.threshold:
                    print(f"[{tier_name}] {path}.{metric}: "
                          f"{base_value:.0f} -> {cand_value:.0f} "
                          f"({-drop:+.1%}) {status}")
            elif args.verbose:
                delta = cand_value - base_value
                print(f"[{tier_name}] {path}.{metric}: "
                      f"{base_value:g} -> {cand_value:g} ({delta:+g}) "
                      f"(informational)")
        base_keys = {(p, m) for p, m, _ in iter_metrics(base_tier)}
        for path, metric in cand_metrics:
            if (path, metric) not in base_keys and \
                    is_throughput_metric(metric):
                print(f"warning: [{tier_name}] {path}.{metric} present "
                      f"only in the candidate", file=sys.stderr)
    for key in cand_tiers:
        if key not in base_tiers:
            tier_name = f"ops={key[0]}" + "".join(
                f" {k}={v}" for k, v in key[1])
            print(f"note: tier [{tier_name}] missing from baseline",
                  file=sys.stderr)

    if compared == 0:
        # Not a failure: some documents (e.g. BENCH_cluster.json's
        # migration-cost tiers) track movement or latency figures with no
        # throughput key, and a brand-new bench has no overlap yet.
        print("warning: no throughput metrics (*_per_second, *rps) in "
              "common between the two documents; nothing to gate on",
              file=sys.stderr)
        return 0
    if regressions:
        print(f"\nFAIL: {len(regressions)} throughput metric(s) regressed "
              f"more than {args.threshold:.0%}:", file=sys.stderr)
        for tier_name, path, metric, base_value, cand_value, drop in \
                regressions:
            print(f"  [{tier_name}] {path}.{metric}: {base_value:.0f} -> "
                  f"{cand_value:.0f} ({-drop:+.1%})", file=sys.stderr)
        return 1
    print(f"OK: {compared} throughput metric(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
