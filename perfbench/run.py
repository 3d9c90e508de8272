#!/usr/bin/env python3
"""Pipeline benchmark for opminer: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload exp1-dense --seed 1 --seconds 45 --trace 0

Run from the repository root. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a traced run, whose spans go to ``perfbench/out/trace-<workload>-<seed>.json``.
See perfbench/README.md for the workloads and metrics.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds for about this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "opminer" / "__init__.py").is_file():
        print(f"error: no opminer sources under {root / 'src'}", file=sys.stderr)
        return 2

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), STARTED)
    doc = json.dumps(result.to_json(), sort_keys=True)
    bench.OUT.mkdir(parents=True, exist_ok=True)
    (bench.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(doc + "\n")
    print(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
