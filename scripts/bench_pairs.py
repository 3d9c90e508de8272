#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload cli-sparse --seed 5 --pairs 10

PARENT and CHANGE are checkouts of this repository. Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`` once in each checkout, from its root, with the run length from
``BENCHMARK.json``; odd pairs run PARENT first, even pairs CHANGE first. The
two checkouts must hold the same ``BENCHMARK.json`` and the same files under
``perfbench/`` (run outputs and caches aside): a gain measured against an
edited benchmark does not count.

For every end-to-end metric the script prints each side's median and
quartiles, the share of pairs the change won (ties count for neither side,
"better" is the metric's direction in ``BENCHMARK.json``), the change of the
median against the metric's bound and the parent's interquartile spread. It
exits 1 if any run failed, was not ``correct`` or had failed operations, and
2 on bad arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result document of one benchmark run; SystemExit if the run fails."""
    command = [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"error: run in {checkout} exited {proc.returncode}")
    return json.loads(lines[-1])


#: what running or testing the benchmark leaves under perfbench/
RUN_OUTPUTS = {"__pycache__", ".pytest_cache", ".hypothesis"}


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """The contents of the files under ``checkout/perfbench``, by relative path,
    less ``out/`` and the caches in ``RUN_OUTPUTS``."""
    root = checkout / "perfbench"
    files = {}
    for path in root.rglob("*"):
        parts = path.relative_to(root).parts
        if path.is_file() and parts[0] != "out" and not RUN_OUTPUTS & set(parts):
            files["/".join(parts)] = path.read_bytes()
    return files


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    specs = []
    for checkout in (args.parent, args.change):
        try:
            specs.append(json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read {checkout / 'BENCHMARK.json'}: {exc}")
    if specs[0] != specs[1]:
        parser.error("the two checkouts hold different BENCHMARK.json files")
    trees = [benchmark_files(checkout) for checkout in (args.parent, args.change)]
    if trees[0] != trees[1]:
        differ = [k for k in sorted(trees[0].keys() | trees[1].keys())
                  if trees[0].get(k) != trees[1].get(k)]
        parser.error(f"the two checkouts hold different perfbench/ trees: {', '.join(differ)}")
    spec = specs[0]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"BENCHMARK.json lists no workload {args.workload!r}")

    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, spec["run_seconds"])
            results[side].append(result)
            shown = " ".join(
                f"{name}={value['value']:.4g}" for name, value in sorted(result["metrics"].items())
            )
            print(f"pair {i + 1}/{args.pairs} {side}: {shown}", file=sys.stderr)

    ok = True
    for side, runs in results.items():
        for i, r in enumerate(runs):
            if not r["correct"] or r["failed"]:
                print(f"{side} run {i + 1}: correct={r['correct']} failed={r['failed']}"
                      f" of {r['attempted']}")
                ok = False

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {spec['run_seconds']} s runs")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        if any(name not in r["metrics"] for runs in results.values() for r in runs):
            print(f"{name}: not reported by every run")
            continue
        parent, change = ([r["metrics"][name]["value"] for r in results[side]]
                          for side in ("parent", "change"))
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        moved = (cmed - pmed) / abs(pmed) if pmed else float("nan")
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  "
            f"change won {wins}/{len(parent)}  median {moved:+.1%} (bound {metric['bound']:.0%})  "
            f"|median difference| {abs(cmed - pmed):.4g} vs parent IQR {pq3 - pq1:.4g}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
