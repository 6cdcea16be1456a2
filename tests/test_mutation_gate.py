import subprocess
import sys
from pathlib import Path

import mutation_gate

REPO = Path(__file__).resolve().parent.parent


def test_every_named_killer_is_collected_by_tier1():
    """Each mutant's killer is a node id that tier-1 collects: a test
    id, or a test function whose parametrized ids it collects."""
    killers = sorted({mutant[-1] for mutant in mutation_gate.MUTANTS})
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *killers],
                          cwd=REPO, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = {line for line in done.stdout.splitlines() if "::" in line}
    missing = [k for k in killers
               if k not in collected and not any(c.startswith(k + "[") for c in collected)]
    assert missing == []


def test_killer_verdict_on_real_pytest_runs(tmp_path):
    """killed_by on the exit code and stdout of real pytest runs: a
    failed test kills the mutant, and so does a module that fails to
    import, named by node id (pytest 9 exits 4) or by path (exit 2); a
    passing test, a node id that names no test (exit 4) and a module
    with no tests (exit 5) leave it to the full suite."""
    (tmp_path / "test_broken.py").write_text("raise ValueError('broken')\n"
                                             "def test_a():\n    pass\n")
    (tmp_path / "test_fails.py").write_text("def test_a():\n    assert False\n")
    (tmp_path / "test_passes.py").write_text("def test_a():\n    pass\n")
    (tmp_path / "test_empty.py").write_text("")
    expected = {"test_broken.py::test_a": "an error collecting its module",
                "test_broken.py": "an error collecting its module",
                "test_fails.py::test_a": "a failed test",
                "test_passes.py::test_a": None, "test_passes.py::test_b": None,
                "test_empty.py": None}
    got = {}
    for node in expected:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", node],
                              cwd=tmp_path, capture_output=True, text=True)
        got[node] = mutation_gate.killed_by(done.returncode, done.stdout)
    assert got == expected
