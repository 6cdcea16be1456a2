"""Decode benchmark of z4negacyclic.

    python3 perfbench/run.py --workload decode-255-4 --seed 1 --seconds 55 --trace 0

Run from the root of a repository checkout; the package is imported
from its `src/` directory.  Stdout gets two JSON lines: a report with
the details of the run, then the result
{"correct", "attempted", "failed", "metrics"}, whose metrics are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
Exits 1 when the program breaks a check, with each breach (seed and
word included) on stderr, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "z4negacyclic" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.GateError as exc:
        print(f"error: seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(json.dumps({"report": result.report}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    if not result.correct:
        for line in result.report["violations"]:
            print(f"error: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
