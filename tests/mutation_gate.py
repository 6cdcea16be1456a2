"""Mutation gate: every seeded mutant of src/ must fail the tier-1 tests.

Run from anywhere with `python tests/mutation_gate.py`.  Each mutant is
(file under src/z4negacyclic, old text, new text); the old text must
occur exactly once in the file, or the gate stops before running
anything, so a mutant that no longer applies is noticed rather than
silently skipped.  The unmutated tree runs first and must pass.  Then,
for each mutant, src/ is copied to a temporary directory, the mutant is
applied there, and the tier-1 suite runs against the copy (PYTHONPATH
set to it) with -x; a nonzero exit kills the mutant.  The gate prints
killed/survived with the time of each run and exits 1 when a mutant
survives.  Pytest does not collect this file: its name has no test_
prefix.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = "z4negacyclic"

# (name, file, old text, new text)
MUTANTS = (
    ("key_series without its constant term", "keyeq.py",
     "return series_inverse(ring, ([1] + ua, [0] + ub))",
     "return tuple(x[1:] for x in series_inverse(ring, ([1] + ua, [0] + ub)))"),
    ("series_inverse one term short", "keyeq.py",
     "for k in range(1, len(fa)):",
     "for k in range(1, len(fa) - 1):"),
    ("residue_logs at beta^j, not beta^-j", "negacyclic.py",
     "residue_logs = -step * np.arange(n",
     "residue_logs = step * np.arange(n"),
    ("x O with the parity of j flipped", "decoder.py",
     "exp[lx + log[ob]] ^ (pa if j & 1 else 0)",
     "exp[lx + log[ob]] ^ (pa if not j & 1 else 0)"),
    ("seeded round-0 discrepancy -1 as +1", "solver.py",
     "za, zb = [u, 0, 1, 0], [v, u, 1, 1]",
     "za, zb = [u, 0, 1, 0], [v, u, 0, 1]"),
    ("2U_0 seeded as 0", "solver.py",
     "za, zb = [u, 0, 1, 0], [v, u, 1, 1]",
     "za, zb = [u, 0, 1, 0], [v, 0, 1, 1]"),
    ("rounds updated in ascending order", "solver.py",
     "for s in order[::-1]:",
     "for s in order:"),
    ("pair_strs reversed", "galois_ring.py",
     "return [self.pair_str(a, b) for a, b in zip(*poly)]",
     "return [self.pair_str(a, b) for a, b in zip(*poly)][::-1]"),
    ("_sweep roots shifted by one", "decoder.py",
     "np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)",
     "(np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0) + 1) % code.n"),
    ("make_ring accepts m = 11", "galois_ring.py",
     "if not 2 <= m <= 10:",
     "if not 2 <= m <= 11:"),
    ("carry dropped from the digit corrections", "galois_ring.py",
     "corr[c] = corr[rest] ^ exp[hlog[rest] + hlog[top]]",
     "corr[c] = corr[rest]"),
    ("ring modulus is the residue, not its lift", "galois_ring.py",
     "self.modulus = tuple(graeffe_lift(residue))",
     "self.modulus = tuple(residue)"),
    ("make_ring passes the reciprocal residue", "galois_ring.py",
     "return GaloisRing(_PRIMITIVE_GF2[m])",
     "return GaloisRing(_PRIMITIVE_GF2[m][::-1])"),
    ("antilog array shifted by one", "galois_ring.py",
     "self.exp_array = np.array(self.exp, dtype=np.int64)",
     "self.exp_array = np.array(self.exp[1:] + [0], dtype=np.int64)"),
    ("lift accepts a residue that is not 0/1", "galois_ring.py",
     "if any(b not in (0, 1) for b in p):",
     "if False:"),
    ("syndrome exponents reduced mod n, not 2n", "negacyclic.py",
     "np.arange(1, 2 * t, 2)) % (2 * n)",
     "np.arange(1, 2 * t, 2)) % n"),
    ("minimal_regular t off by one", "solver.py",
     "t = sum(basis.shape) // 2 - 1",
     "t = sum(basis.shape) // 2"),
    ("no residual-syndrome guard", "decoder.py",
     "    if _nonzero(syndromes(codeword, code)):",
     "    if False and _nonzero(syndromes(codeword, code)):"),
    ("no Lee-distance guard", "decoder.py",
     "    if _LEE[error].sum() > t:",
     "    if False and _LEE[error].sum() > t:"),
    ("Z4 product not reduced", "polynomial.py",
     "return poly_strip((np.convolve(f, g) & 3).tolist())",
     "return poly_strip(np.convolve(f, g).tolist())"),
    ("Graeffe from p(x)^2", "galois_ring.py",
     "prod = poly_mul(p, [-c % 4 if i & 1 else c for i, c in enumerate(p)])",
     "prod = poly_mul(p, p)"),
    ("binary product not reduced mod 2", "negacyclic.py",
     "f = [c & 1 for c in poly_mul(f, factor)]",
     "f = poly_mul(f, factor)"),
    ("field accepts a non-primitive modulus", "galois_ring.py",
     "if a != 1 or len(set(exp)) != order:",
     "if False:"),
)

TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def _check_mutants() -> None:
    for name, file, old, _ in MUTANTS:
        count = (REPO / "src" / PACKAGE / file).read_text().count(old)
        if count != 1:
            sys.exit(f"mutant {name!r}: its old text occurs {count} times in {file}, not once")


def _run_tier1(src: Path) -> tuple[int, float]:
    """The tier-1 exit code with the package imported from src, and the
    seconds it took."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    where = subprocess.run([sys.executable, "-c", f"import {PACKAGE}; print({PACKAGE}.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).is_relative_to(src):
        sys.exit(f"{PACKAGE} imports from {where.strip()}, not from {src}")
    start = time.monotonic()
    done = subprocess.run(TIER1, cwd=REPO, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode, time.monotonic() - start


def main() -> int:
    _check_mutants()
    started = time.monotonic()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        for index, mutant in enumerate((None,) + MUTANTS):
            src = Path(tmp) / f"src{index}"
            shutil.copytree(REPO / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            if mutant is None:
                code, seconds = _run_tier1(src)
                print(f"unmutated: exit {code} in {seconds:.1f} s", flush=True)
                if code:
                    print("the unmutated tree fails tier-1; no mutant can be judged")
                    return 1
                continue
            name, file, old, new = mutant
            path = src / PACKAGE / file
            path.write_text(path.read_text().replace(old, new))
            code, seconds = _run_tier1(src)
            verdict = "killed" if code else "SURVIVED"
            print(f"{verdict}: {name} ({file}), exit {code} in {seconds:.1f} s", flush=True)
            if not code:
                survivors.append(name)
    killed = len(MUTANTS) - len(survivors)
    print(f"{killed}/{len(MUTANTS)} mutants killed in {time.monotonic() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
