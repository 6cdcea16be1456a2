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
