import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent / "ab_decode.py"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_ab_decode_smoke(tmp_path):
    # the repo's tree against itself, one round of one pass over two words
    out = tmp_path / "ab.json"
    subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(SRC), "--seed", "1",
                    "--words", "2", "--passes", "1", "--rounds", "1", "--out", str(out)],
                   check=True, capture_output=True)
    result = json.loads(out.read_text())
    assert set(result) == {"trees", "python", "numpy", "seed", "words", "passes", "rounds",
                           "workloads"}
    assert set(result["trees"]) == {"a", "b"}
    assert all(set(tree) == {"commit", "dirty"} for tree in result["trees"].values())
    assert (result["seed"], result["words"], result["passes"], result["rounds"]) == (1, 2, 1, 1)
    assert set(result["workloads"]) == {"decode-255-4", "channel-31-5"}
    for runs in result["workloads"].values():
        for side in "ab":
            assert set(runs[side]) == {"median", "q1", "q3", "us_per_word",
                                       "build_median", "build_q1", "build_q3", "build_ms"}
            assert len(runs[side]["us_per_word"]) == len(runs[side]["build_ms"]) == 1
            assert runs[side]["build_q1"] <= runs[side]["build_median"] <= runs[side]["build_q3"]
        for ratio in ("ratio_b_over_a", "build_ratio_b_over_a"):
            assert math.isfinite(runs[ratio]) and runs[ratio] > 0
