"""A/B timing of `decode` between two source trees, on the benchmark's words.

    python tests/ab_decode.py PARENT/src src --out BENCH_label.json

Each round runs one subprocess per tree, A first in even rounds and B
first in odd ones.  The subprocess imports the package from its tree,
builds the workload's code, takes the first N words that
`perfbench/harness.py`'s `make_inputs` draws for the seed, decodes them
K times (untraced, as the benchmark times them) and prints its best
pass in us per word, and the ms of its one `build_code` call: a cold
build, as the interpreter is fresh, so it includes `make_ring`.  The
build is timed before the harness is imported, with only the package
loaded, as perfbench's cold starts time it.  The harness is only
imported, from this checkout's `perfbench/`, so both trees are fed the
same words.

The JSON written to --out holds, per workload and tree, every round's
figures with their medians and quartiles, and the ratios of the
medians, B over A (below 1 when B is faster): `ratio_b_over_a` for
decoding and `build_ratio_b_over_a` for the cold build.  It also holds
the decode B/A of each round, whose two subprocesses run back to back
(`round_ratios`), their quartiles (`round_ratio_q1`, `round_ratio_q3`),
and `resolved`, false when those quartiles straddle 1: the rounds then
do not tell which tree is faster.  Last come both trees' commits, the
Python and numpy versions, the seed, N, K and R.
Pytest does not collect this file: its name has no test_ prefix.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = "z4negacyclic"

CHILD = """\
import dataclasses, sys, time
src, perfbench, name, seed, words, passes = sys.argv[1:]
# the build is timed with only the package imported, as perfbench's
# cold starts time it: after the harness's import, a garbage collection
# of the young objects that import left falls into the build (3 ms at
# (255,4), as long as the build itself); a workload is named kind-n-t
n, t = map(int, name.rsplit("-", 2)[1:])
sys.path.insert(0, src)
import z4negacyclic
from z4negacyclic.negacyclic import build_code
if not z4negacyclic.__file__.startswith(src):
    sys.exit(f"z4negacyclic imports from {z4negacyclic.__file__}, not from {src}")
start = time.perf_counter_ns()
code = build_code(n, t)
build_ms = (time.perf_counter_ns() - start) / 1e6
sys.path.insert(1, perfbench)
import harness
from z4negacyclic.decoder import decode
wl = harness.WORKLOADS[name]
if (wl.n, wl.t) != (n, t):
    sys.exit(f"workload {name} is ({wl.n},{wl.t}), not ({n},{t})")
# make_inputs draws word after word: a pool of N is the full pool's first N
samples, _ = harness.make_inputs(dataclasses.replace(wl, pool=int(words)), code, int(seed))
received = [s.received for s in samples]
best = float("inf")
for _ in range(int(passes)):
    start = time.perf_counter_ns()
    for w in received:
        decode(w, code)
    best = min(best, (time.perf_counter_ns() - start) / 1e3 / len(received))
print(best, build_ms)
"""


def _time(src: Path, workload: str, seed: int, words: int, passes: int) -> tuple[float, float]:
    """The best pass of one subprocess on src, in us per word, and its
    cold build_code, in ms."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(PERFBENCH), workload,
         str(seed), str(words), str(passes)],
        capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{src} on {workload}: {done.stderr.strip()}")
    us_per_word, build_ms = map(float, done.stdout.split())
    return us_per_word, build_ms


def _commit(src: Path) -> dict:
    """The git commit of the checkout holding src, and whether it has
    uncommitted changes; None for a tree outside a checkout."""
    head = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        return {"commit": None, "dirty": None}
    status = subprocess.run(["git", "-C", str(src), "status", "--porcelain", "--", "."],
                            capture_output=True, text=True, check=True)
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _quartiles(values: list[float]) -> list[float]:
    return (statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3)


def _spread(runs: list[tuple[float, float]]) -> dict:
    """The decode figures (us per word) and cold builds (ms) of one
    tree's rounds, each with its median and quartiles."""
    us, build = map(list, zip(*runs))
    q1, median, q3 = _quartiles(us)
    b1, build_median, b3 = _quartiles(build)
    return {"median": median, "q1": q1, "q3": q3, "us_per_word": us,
            "build_median": build_median, "build_q1": b1, "build_q3": b3, "build_ms": build}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the src/ directory of tree A (the baseline)")
    parser.add_argument("b", type=Path, help="the src/ directory of tree B (the change)")
    parser.add_argument("--workload", nargs="+", default=["decode-255-4", "channel-31-5"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--words", type=int, default=1500, help="N, words decoded per pass")
    parser.add_argument("--passes", type=int, default=5, help="K, passes per subprocess")
    parser.add_argument("--rounds", type=int, default=11, help="R, subprocesses per tree")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    for src in trees.values():
        if not (src / PACKAGE / "__init__.py").is_file():
            parser.error(f"{src} holds no {PACKAGE} package")
    if min(args.words, args.passes, args.rounds) < 1:
        parser.error("--words, --passes and --rounds must be at least 1")

    workloads = {}
    for workload in args.workload:
        runs = {"a": [], "b": []}
        for r in range(args.rounds):
            for side in ("ab" if r % 2 == 0 else "ba"):
                runs[side].append(_time(trees[side], workload, args.seed,
                                        args.words, args.passes))
        spread = {side: _spread(values) for side, values in runs.items()}
        a, b = spread["a"], spread["b"]
        rounds = [rb[0] / ra[0] for ra, rb in zip(runs["a"], runs["b"])]
        q1, _, q3 = _quartiles(rounds)
        w = workloads[workload] = {
            **spread, "ratio_b_over_a": b["median"] / a["median"],
            "build_ratio_b_over_a": b["build_median"] / a["build_median"],
            "round_ratios": rounds, "round_ratio_q1": q1, "round_ratio_q3": q3,
            "resolved": not q1 <= 1 <= q3}
        print(f"{workload}: A {a['median']:.1f} us/word, build {a['build_median']:.2f} ms; "
              f"B {b['median']:.1f} us/word, build {b['build_median']:.2f} ms; "
              f"B/A {w['ratio_b_over_a']:.3f}, build {w['build_ratio_b_over_a']:.3f}; "
              f"rounds B/A {q1:.3f}-{q3:.3f}{'' if w['resolved'] else ', unresolved'}",
              flush=True)

    result = {
        "trees": {side: _commit(src) for side, src in trees.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed, "words": args.words, "passes": args.passes, "rounds": args.rounds,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
