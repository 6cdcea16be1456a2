"""Command-line front end.

Words travel as digit strings over {0,1,2,3}, position 0 leftmost;
ring elements as comma-separated Z4 digits, constant term first.  Most
commands take the code parameters -n and -t and accept --json for
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import golden
from .decoder import decode
from .negacyclic import (MAX_SCAN_RANK, build_code, encode, min_distance_exhaustive,
                         word_from_str, word_to_str)

__all__ = ["main"]


def _add_code_args(parser):
    parser.add_argument("-n", type=int, required=True, help="code length (odd)")
    parser.add_argument("-t", type=int, required=True, help="designed correction capability")


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def cmd_code_info(args) -> int:
    code = build_code(args.n, args.t)
    payload = {
        "n": code.n, "t": code.t, "m": code.ring.m,
        "modulus": list(code.ring.modulus),
        "alpha": code.ring.pair_str(*code.alpha),
        "generator": list(code.generator),
        "k": code.k,
        "designed_distance": 2 * code.t + 1,
    }
    human = (f"n={code.n} t={code.t} m={code.ring.m}\n"
             f"modulus: {';'.join(str(c) for c in code.ring.modulus)}\n"
             f"alpha: {payload['alpha']}\n"
             f"generator: {';'.join(str(c) for c in code.generator)}\n"
             f"k={code.k} designed distance {2 * code.t + 1}")
    _emit(args, payload, human)
    return 0


def cmd_encode(args) -> int:
    code = build_code(args.n, args.t)
    msg = word_from_str(args.msg)
    word = encode(msg, code)
    _emit(args, {"word": word_to_str(word)}, word_to_str(word))
    return 0


def cmd_decode(args) -> int:
    code = build_code(args.n, args.t)
    word = word_from_str(args.word, code.n)
    outcome = decode(word, code, with_trace=args.trace)
    payload = {"success": outcome.success}
    if outcome.success:
        payload["codeword"] = word_to_str(outcome.codeword)
        payload["error"] = word_to_str(outcome.error)
        human = (f"codeword: {payload['codeword']}\n"
                 f"error:    {payload['error']}")
    else:
        payload["reason"] = outcome.reason
        human = f"decoding failed: {outcome.reason}"
    if args.trace:
        payload["trace"] = outcome.trace
        human += "\ntrace: " + json.dumps(outcome.trace)
    _emit(args, payload, human)
    return 0 if outcome.success else 1


def cmd_min_distance(args) -> int:
    code = build_code(args.n, args.t)
    dist = min_distance_exhaustive(code)
    _emit(args, {"min_distance": dist}, str(dist))
    return 0


def _random_error(rng: random.Random, n: int, weight: int) -> list[int]:
    """A Lee-weight-exactly-`weight` pattern: uniformly pick how many
    symbols are 2, then supports and signs uniformly."""
    error = [0] * n
    doubles = rng.randint(0, weight // 2)
    positions = rng.sample(range(n), doubles + (weight - 2 * doubles))
    for p in positions[:doubles]:
        error[p] = 2
    for p in positions[doubles:]:
        error[p] = rng.choice((1, 3))
    return error


def cmd_simulate(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0; got {args.trials}")
    code = build_code(args.n, args.t)
    if not 0 <= args.weight <= code.n:
        raise ValueError(f"--weight must be in 0..{code.n}; got {args.weight}")
    rng = random.Random(args.seed)
    ok = failures = 0
    for _ in range(args.trials):
        msg = [rng.randrange(4) for _ in range(code.k)]
        codeword = encode(msg, code)
        error = _random_error(rng, code.n, args.weight)
        received = [(c + e) % 4 for c, e in zip(codeword, error)]
        outcome = decode(received, code)
        if not outcome.success:
            failures += 1
        elif outcome.codeword == codeword:
            ok += 1
    # a success with another codeword than the one sent
    miscorrections = args.trials - ok - failures
    payload = {"trials": args.trials, "successes": ok, "failures": failures,
               "miscorrections": miscorrections, "weight": args.weight, "seed": args.seed}
    _emit(args, payload, f"{ok}/{args.trials} decoded exactly, {failures} failed, "
                         f"{miscorrections} miscorrected "
                         f"(error weight {args.weight}, seed {args.seed})")
    return 0


def cmd_reproduce_paper(args) -> int:
    checks = golden.run_all(quick=args.quick)
    passed = sum(ok for _, ok, _, _ in checks)
    lines = []
    for name, ok, expected, got in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            lines.append(f"  expected: {json.dumps(expected)}\n  got:      {json.dumps(got)}")
    lines.append(f"{passed}/{len(checks)} checks passed")
    payload = {"checks": [{"name": name, "ok": ok, "expected": expected, "got": got}
                          for name, ok, expected, got in checks],
               "passed": passed, "total": len(checks)}
    _emit(args, payload, "\n".join(lines))
    return 0 if passed == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z4negacyclic",
        description="negacyclic codes over Z4 with Lee-metric decoding")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code-info", help="construction parameters of a code")
    _add_code_args(p)
    p.set_defaults(func=cmd_code_info)

    p = sub.add_parser("encode", help="encode a rank-k message word")
    _add_code_args(p)
    p.add_argument("--msg", required=True, help="k digits over 0-3")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a length-n received word")
    _add_code_args(p)
    p.add_argument("--word", required=True, help="n digits over 0-3")
    p.add_argument("--trace", action="store_true", help="include the diagnostic trace")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("min-distance",
                       help=f"exhaustive minimum Lee distance, for ranks up to {MAX_SCAN_RANK}")
    _add_code_args(p)
    p.set_defaults(func=cmd_min_distance)

    p = sub.add_parser("simulate", help="random decode trials at a fixed error weight")
    _add_code_args(p)
    p.add_argument("--weight", type=int, required=True, help="exact Lee weight of errors")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-paper",
                       help="re-run the bundled reference examples and parameter table")
    p.add_argument("--quick", action="store_true",
                   help="skip the large 4^k distance scans")
    p.set_defaults(func=cmd_reproduce_paper)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
