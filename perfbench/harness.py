"""Workloads, inputs, timing loops and outcome checks of the decode benchmark.

Each workload is a closed loop with one caller: the next call is issued
when the previous one returns.  Inputs are generated from the seed
before timing starts, through the package's own `encode`; `decode` sees
only the received words.  Every outcome is checked (see `check_outcome`).

A workload with `scan` also calls `min_distance_exhaustive` once on its
code, after the decode loop, and checks that it returns SCAN_DISTANCE.

`run` measures one workload.  Untraced, it returns the end-to-end
metrics (END_TO_END).  Traced, it alternates untraced and traced blocks
of calls (`closed_loop`) and returns the per-layer metrics (PER_LAYER),
derived from the spans and counts of `spans.installed`.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import spans
from z4negacyclic import golden
from z4negacyclic.negacyclic import build_code, encode
from z4negacyclic.polynomial import Z4, poly_divmod

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = Path(__file__).resolve().parent / "out"

LEE = (0, 1, 2, 1)
SCAN_DISTANCE = 16          # minimum Lee distance of the (31,5) code
CHANNEL_P = 0.12            # per-symbol error probability of channel-31-5
CHANNEL_SYMBOLS = (1, 1, 3, 3, 2)  # error values +1 : -1 : 2 = 2 : 2 : 1
COLD_STARTS = 7             # setup_s is the median of this many cold starts
OP_OPERANDS = 512           # seeded operands per ring-operation timing
OP_REPEATS = 7

END_TO_END = {
    "words_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "keyeq.syndromes.calls_per_word": "count",
    "keyeq.syndromes.ms_per_word": "ms",
    "keyeq.odd_ratio.ms_per_word": "ms",
    "keyeq.key_series.ms_per_word": "ms",
    "polynomial.series_inverse.ms_per_word": "ms",
    "solver.solve.calls_per_word": "count",
    "solver.solve.ms_per_word": "ms",
    "solver.minimal_regular.ms_per_word": "ms",
    "decoder.pass2_repeat_fraction": "fraction",
    "decoder.residue_locator.ms_per_word": "ms",
    "decoder.locate.ms_per_word": "ms",
    "decoder.resolve.ms_per_word": "ms",
    "polynomial.root_multiplicity.calls_per_word": "count",
    "polynomial.root_multiplicity.ms_per_word": "ms",
    "decoder.self.ms_per_word": "ms",
    "decoder.decode.total_ms_per_word": "ms",
    "galois_ring.mul.calls_per_word": "count",
    "galois_ring.add.calls_per_word": "count",
    "galois_ring.inverse.calls_per_word": "count",
    "galois_ring.field_mul.calls_per_word": "count",
    "galois_ring.mul.ns": "ns",
    "galois_ring.add.ns": "ns",
    "galois_ring.inverse.ns": "ns",
    "galois_ring.field_mul.ns": "ns",
    "negacyclic.build_code.ms": "ms",
    "negacyclic.encode.us_per_word": "us",
    "negacyclic.scan.s": "s",
    "trace_overhead_fraction": "fraction",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    t: int
    errors: str    # "exact" (Lee weight exactly t) or "channel"
    block: int     # traced runs alternate blocks of this many calls
    pool: int      # words generated before timing; the loop cycles through them
    scan: bool = False  # also scan the code with min_distance_exhaustive


WORKLOADS = {w.name: w for w in (
    Workload("decode-255-4", 255, 4, "exact", 16, 2048),
    Workload("channel-31-5", 31, 5, "channel", 64, 8192, scan=True),
)}


class GateError(Exception):
    """The program failed a correctness check that precedes timing."""


class Sample(NamedTuple):
    index: int
    sent: list
    received: list
    weight: int        # Lee weight of the error
    double: bool       # the error holds a symbol 2


@dataclass
class Tally:
    latencies_ns: list = field(default_factory=list)
    within: int = 0
    beyond: int = 0
    doubles: int = 0
    correct: int = 0
    detected: int = 0
    miscorrected: int = 0
    violations: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: dict


# ---- inputs ---------------------------------------------------------------

def exact_weight_error(rng: random.Random, n: int, weight: int) -> list[int]:
    """Lee weight exactly `weight`: the number of 2-symbols uniform, then
    supports and signs uniform (the CLI's `simulate` draws the same way)."""
    error = [0] * n
    doubles = rng.randint(0, weight // 2)
    positions = rng.sample(range(n), doubles + (weight - 2 * doubles))
    for p in positions[:doubles]:
        error[p] = 2
    for p in positions[doubles:]:
        error[p] = rng.choice((1, 3))
    return error


def channel_error(rng: random.Random, n: int) -> list[int]:
    """i.i.d. Lee channel: each symbol in error with probability CHANNEL_P."""
    return [rng.choice(CHANNEL_SYMBOLS) if rng.random() < CHANNEL_P else 0
            for _ in range(n)]


def make_inputs(wl: Workload, code, seed: int) -> tuple[list[Sample], float]:
    """The workload's seeded words, and encode's cost in us per word."""
    rng = random.Random(f"{wl.name}:{seed}")
    msgs, errors = [], []
    for _ in range(wl.pool):
        msgs.append([rng.randrange(4) for _ in range(code.k)])
        errors.append(exact_weight_error(rng, code.n, code.t) if wl.errors == "exact"
                      else channel_error(rng, code.n))
    start = time.perf_counter_ns()
    sent = [encode(m, code) for m in msgs]
    encode_us = (time.perf_counter_ns() - start) / 1e3 / wl.pool
    samples = [Sample(i, c, [(a + e) % 4 for a, e in zip(c, err)],
                      sum(LEE[e] for e in err), 2 in err)
               for i, (c, err) in enumerate(zip(sent, errors))]
    return samples, encode_us


# ---- checks ---------------------------------------------------------------

def check_outcome(sample: Sample, outcome, code) -> str | None:
    """None when the outcome keeps the decoder's contract, else the breach.

    A breach is an exception; a word within radius t not returned as its
    sent codeword; or a success whose codeword is not divisible by the
    generator or lies at Lee distance > t from the received word.
    """
    if isinstance(outcome, Exception):
        return f"raised {outcome!r}"
    if outcome.success:
        cw = list(outcome.codeword)
        if len(cw) != code.n:
            return f"returned a word of length {len(cw)}"
        _, rem = poly_divmod(Z4, cw, list(code.generator))
        if rem:
            return f"returned {_word(cw)}, not divisible by the generator"
        if sum(LEE[(a - b) % 4] for a, b in zip(cw, sample.received)) > code.t:
            return f"returned {_word(cw)} at Lee distance > {code.t}"
    if sample.weight <= code.t and not (outcome.success and outcome.codeword == sample.sent):
        got = _word(outcome.codeword) if outcome.success else f"failure ({outcome.reason})"
        return f"within radius, expected {_word(sample.sent)}, got {got}"
    return None


def _word(word) -> str:
    return "".join(str(c) for c in word)


def golden_gate() -> None:
    bad = [f"{name}: expected {exp}, got {got}"
           for name, ok, exp, got in golden.decode_example_checks() if not ok]
    if bad:
        raise GateError("bundled decode example does not reproduce: " + "; ".join(bad))


# ---- loops ----------------------------------------------------------------

def decode_step(sample: Sample, code, decode, tally: Tally, seed: int) -> None:
    start = time.perf_counter_ns()
    try:
        outcome = decode(sample.received, code)
    except Exception as exc:  # decode must never raise: count it as a breach
        outcome = exc
    tally.latencies_ns.append(time.perf_counter_ns() - start)
    tally.doubles += sample.double
    if sample.weight <= code.t:
        tally.within += 1
    else:
        tally.beyond += 1
    breach = check_outcome(sample, outcome, code)
    if breach:
        tally.violations.append(f"seed {seed} word {sample.index} received "
                                f"{_word(sample.received)}: {breach}")
    elif not outcome.success:
        tally.detected += 1
    elif outcome.codeword == sample.sent:
        tally.correct += 1
    else:
        tally.miscorrected += 1


def scan_step(code, scan, tally: Tally, seed: int) -> None:
    """One min_distance_exhaustive call, which must return SCAN_DISTANCE."""
    start = time.perf_counter_ns()
    try:
        distance = scan(code)
    except Exception as exc:  # count it as a breach, like a raising decode
        distance = exc
    tally.latencies_ns.append(time.perf_counter_ns() - start)
    if distance == SCAN_DISTANCE:
        tally.correct += 1
    else:
        tally.violations.append(f"seed {seed}: min_distance_exhaustive returned "
                                f"{distance!r}, expected {SCAN_DISTANCE}")


def closed_loop(step, seconds: float, max_calls: int | None, block: int,
                tracer: spans.Tracer | None = None) -> None:
    """Call step(i, traced) for i = 0, 1, ... until `seconds` have passed
    or max_calls calls are made.  With a tracer, blocks of `block` calls
    alternate between untraced and traced, so both meet the program's
    caches (the ring caches inverses) in the same state, and the loop
    goes on until one traced block is done, however short `seconds` is."""
    gc.collect()
    deadline = time.perf_counter() + seconds
    calls = 0

    def running():
        wanted = time.perf_counter() < deadline or (tracer is not None and calls < 2 * block)
        return wanted and (max_calls is None or calls < max_calls)

    while running():
        traced = tracer is not None and (calls // block) % 2 == 1
        with spans.installed(tracer) if traced else contextlib.nullcontext():
            step(calls, traced)
            calls += 1
            while calls % block and running():
                step(calls, traced)
                calls += 1


# ---- statistics -----------------------------------------------------------

def tail_percentile(ordered: list) -> tuple[float, float]:
    """(p, value): the highest of 99.99/99.9/99/90/50 with at least ten
    samples above it, or the maximum when there are too few samples."""
    n = len(ordered)
    for p in (99.99, 99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(p / 100 * n)  # nearest rank
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def summary(latencies_ns: list) -> dict:
    """Throughput (calls per second of time inside the call) and latency."""
    ordered = sorted(latencies_ns)
    p, tail = tail_percentile(ordered)
    return {"words_per_s": len(ordered) * 1e9 / sum(ordered),
            "p50_ms": statistics.median(ordered) / 1e6,
            "tail_ms": tail / 1e6, "tail_percentile": p, "samples": len(ordered)}


def setup_times(wl: Workload) -> tuple[list[float], list[float]]:
    """Cold starts: seconds from a fresh interpreter through import and
    build_code until a decode could be issued, and build_code's own ms.
    One unmeasured start first writes the bytecode cache."""
    child = ("import json, sys, time\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "from z4negacyclic import build_code\n"
             "start = time.perf_counter()\n"
             "build_code(int(sys.argv[2]), int(sys.argv[3]))\n"
             "print(json.dumps((time.perf_counter() - start) * 1e3), flush=True)\n")
    ready, build_ms = [], []
    for i in range(COLD_STARTS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", child, str(SRC), str(wl.n), str(wl.t)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise GateError(f"cold start of build_code({wl.n}, {wl.t}) failed")
        if i:
            ready.append(elapsed)
            build_ms.append(float(line))
    return ready, build_ms


def op_ns(code, seed: int) -> dict[str, float]:
    """ns per public ring operation on seeded operands at the code's m,
    median of OP_REPEATS passes, after one untimed pass (inverse results
    are then cached by the ring, as in a long decode run)."""
    ring, fld = code.ring, code.field()
    rng = random.Random(f"ops:{seed}")
    m = ring.m

    def element():
        return ring.element([rng.randrange(4) for _ in range(m)])

    xs = [element() for _ in range(OP_OPERANDS)]
    ys = [element() for _ in range(OP_OPERANDS)]
    units = [ring.element([1 + 2 * rng.randrange(2)] + [rng.randrange(4) for _ in range(m - 1)])
             for _ in range(OP_OPERANDS)]
    fx = [rng.randrange(1, 1 << m) for _ in range(OP_OPERANDS)]
    fy = [rng.randrange(1, 1 << m) for _ in range(OP_OPERANDS)]

    def mul():
        for a, b in zip(xs, ys):
            a * b

    def add():
        for a, b in zip(xs, ys):
            a + b

    def inverse():
        for a in units:
            a.inverse()

    def field_mul():
        for a, b in zip(fx, fy):
            fld.mul(a, b)

    out = {}
    for name, fn in (("mul", mul), ("add", add), ("inverse", inverse), ("field_mul", field_mul)):
        fn()
        passes = []
        for _ in range(OP_REPEATS):
            start = time.perf_counter_ns()
            fn()
            passes.append((time.perf_counter_ns() - start) / OP_OPERANDS)
        out[f"galois_ring.{name}.ns"] = statistics.median(passes)
    return out


# ---- runs -----------------------------------------------------------------

def _layers(tracer: spans.Tracer, words: int) -> dict[str, float]:
    """Per-word metrics of a traced decode phase: `<span>.ms_per_word` is
    self time, `<name>.calls_per_word` a call count."""
    self_ns, calls = spans.self_times(tracer.spans)
    per = 1 / words if words else 0.0
    out = {}
    for name, _, _ in spans.SPANS:
        if name not in tracer.absent:
            out[f"{name}.ms_per_word"] = self_ns.get(name, 0) / 1e6 * per
            out[f"{name}.calls_per_word"] = calls.get(name, 0) * per
    for name, *_ in spans.COUNTERS:
        if name not in tracer.absent:
            out[f"{name}.calls_per_word"] = tracer.counts[name][0] * per
    if "decoder.locate" not in tracer.absent:
        out["decoder.pass2_repeat_fraction"] = len(tracer.no_double_words) * per
    out["decoder.self.ms_per_word"] = self_ns.get(spans.ROOT_DECODE, 0) / 1e6 * per
    out["decoder.decode.total_ms_per_word"] = sum(
        end - start for name, start, end, parent, _ in tracer.spans
        if parent < 0 and name == spans.ROOT_DECODE) / 1e6 * per
    return out


def _entry(module: str, attr: str):
    return getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), attr)


def run(name: str, seed: int, seconds: float, trace: bool,
        decode=None, max_words: int | None = None) -> Result:
    """Measure one workload; `decode` substitutes the function under test."""
    wl = WORKLOADS[name]
    ready_s, build_ms = setup_times(wl)
    golden_gate()
    code = build_code(wl.n, wl.t)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "code": {"n": code.n, "t": code.t, "m": code.ring.m, "k": code.k},
              "setup_s_samples": ready_s}
    tracer = spans.Tracer() if trace else None
    tallies = (Tally(), Tally())  # untraced, traced
    fn = decode or _entry("decoder", "decode")
    samples, encode_us = make_inputs(wl, code, seed)
    report["pool_words"] = len(samples)
    fns = (fn, tracer.root(spans.ROOT_DECODE, fn) if trace else None)

    def step(i, traced):
        decode_step(samples[i % len(samples)], code, fns[traced], tallies[traced], seed)

    closed_loop(step, seconds, max_words, wl.block, tracer)
    # read before the scan, whose matrices would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scan = Tally()
    if wl.scan:
        scan_step(code, _entry("negacyclic", "min_distance_exhaustive"), scan, seed)
        scan_s = scan.latencies_ns[0] / 1e9
        report["scan"] = {"min_distance": SCAN_DISTANCE if scan.correct else None,
                          "s": scan_s, "codewords_per_s": 4 ** code.k / scan_s}
    timing = summary(tallies[0].latencies_ns)
    rate = timing["words_per_s"]
    report["timing"] = timing
    if trace:
        traced = tallies[1]
        traced_rate = summary(traced.latencies_ns)["words_per_s"]
        layers = _layers(tracer, traced.attempted)
        layers["negacyclic.scan.s"] = scan_s if wl.scan else 0.0
        layers["negacyclic.encode.us_per_word"] = encode_us
        layers["negacyclic.build_code.ms"] = statistics.median(build_ms)
        layers["trace_overhead_fraction"] = 1 - traced_rate / rate
        layers.update(op_ns(code, seed))
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        tracer.write(spans_path, {"workload": name, "seed": seed, "words": traced.attempted})
        report.update(layers=layers, absent=[m for m in PER_LAYER if m not in layers],
                      traced_words_per_s=traced_rate,
                      spans_file=str(spans_path.relative_to(OUT.parents[1])))
        metrics = {m: layers[m] for m in PER_LAYER if m in layers}
    else:
        metrics = {
            "words_per_s": rate,
            "setup_s": statistics.median(ready_s),
            "peak_rss_mb": peak_rss_mb,
        }

    words = sum(t.attempted for t in tallies)
    attempted = words + scan.attempted
    violations = [v for t in (*tallies, scan) for v in t.violations]
    report.update(
        attempted=attempted,
        failed=len(violations),
        failed_fraction=len(violations) / attempted,
        outcomes={"correct": sum(t.correct for t in tallies),
                  "detected_failure": sum(t.detected for t in tallies),
                  "miscorrected": sum(t.miscorrected for t in tallies)},
        words={"within_radius": sum(t.within for t in tallies),
               "beyond_radius": sum(t.beyond for t in tallies),
               "double_error_share": sum(t.doubles for t in tallies) / words},
        violations=violations[:20],
    )
    if wl.errors == "channel":
        report["miscorrected_fraction"] = report["outcomes"]["miscorrected"] / words
    return Result(not violations, attempted, len(violations), metrics, report)
