"""Tests of the benchmark itself: python -m pytest perfbench"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
from z4negacyclic import decoder  # noqa: E402

TRACED_CHILD = ("import json, sys\n"
                "sys.path[:0] = sys.argv[1:3]\n"
                "import harness\n"
                "r = harness.run('decode-255-4', 5, 120, True, max_words=32)\n"
                "print(json.dumps(r.metrics))\n")


def shifted_decode(word, code):
    """A wrong decoder: the right outcome, its codeword shifted by one
    position (x * c mod x^n + 1, still a codeword, but not the sent one)."""
    outcome = decoder.decode(word, code)
    if not outcome.success:
        return outcome
    cw = outcome.codeword
    return dataclasses.replace(outcome, codeword=[(-cw[-1]) % 4] + cw[:-1])


def test_wrong_decode_trips_the_gate():
    result = harness.run("decode-255-4", 3, 120, False, decode=shifted_decode, max_words=20)
    assert not result.correct
    assert result.failed == result.attempted == 20
    assert result.report["failed_fraction"] > 0
    assert result.report["violations"][0].startswith("seed 3 word 0 received ")


def test_traced_call_counts_repeat_at_one_seed():
    runs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", TRACED_CHILD, str(HERE), str(ROOT / "src")],
                             capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(out.stdout))
    counts = [{k: v for k, v in m.items() if k.endswith(".calls_per_word")} for m in runs]
    assert counts[0] == counts[1]
    # every word of decode-255-4 has nonzero syndromes: two passes, one final check
    assert counts[0]["keyeq.syndromes.calls_per_word"] == 3
    assert counts[0]["solver.solve.calls_per_word"] == 2
    metrics = runs[0]
    self_ms = sum(v for k, v in metrics.items()
                  if k.endswith(".ms_per_word") and not k.startswith("decoder.decode."))
    assert abs(self_ms - metrics["decoder.decode.total_ms_per_word"]) < 1e-6 * self_ms


def test_missing_name_is_reported_absent(monkeypatch):
    renamed = tuple((name, module, attr + "_renamed" if name == "decoder.locate" else attr)
                    for name, module, attr in spans.SPANS)
    monkeypatch.setattr(spans, "SPANS", renamed)
    before = decoder.syndromes
    result = harness.run("decode-255-4", 4, 120, True, max_words=32)
    assert result.correct
    assert "decoder.locate.ms_per_word" not in result.metrics
    assert "decoder.pass2_repeat_fraction" in result.report["absent"]
    assert "keyeq.syndromes.ms_per_word" in result.metrics
    assert decoder.syndromes is before  # patches are undone


def test_channel_run_scans_the_code():
    result = harness.run("channel-31-5", 6, 120, False, max_words=64)
    assert result.correct
    assert result.attempted == 64 + 1
    assert result.report["scan"]["min_distance"] == harness.SCAN_DISTANCE


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_fails_without_package_source():
    bare = harness.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "decode-255-4",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""
