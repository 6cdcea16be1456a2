"""Mutation gate: every seeded mutant of src/ must fail the tier-1 tests.

Run from anywhere with `python tests/mutation_gate.py`.  Each mutant is
(file under src/z4negacyclic, old text, new text, killer); the old text
must occur exactly once in the file, or the gate stops before running
anything, so a mutant that no longer applies is noticed rather than
silently skipped.  The unmutated tree runs first and must pass.  Then,
for each mutant, src/ is copied to a temporary directory, the mutant is
applied there, and its killer, a tier-1 node id, runs against the copy
(PYTHONPATH set to it).  Its pytest run is the verdict (killed_by):
a failed test (exit 1) kills the mutant, and so does an error while
collecting the killer's module, say when the mutant breaks build_code
and the module builds a code at import.  Otherwise (the killer passes,
exit 0, collects nothing, exit 5, or names no test, exit 4) the full
tier-1 suite runs with -x, a nonzero exit kills the mutant, and the
gate prints that the named killer is stale.  So a mutant survives
exactly when the full suite passes.  The gate prints killed/survived
with the time of each mutant and exits 1 when a mutant survives.
tests/test_mutation_gate.py checks that tier-1 collects every killer.
Pytest does not collect this file: its name has no test_ prefix.
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

# (name, file, old text, new text, the tier-1 node id that kills it)
MUTANTS = (
    ("key_series without its constant term", "keyeq.py",
     "return series_inverse(ring, ([1] + ua, [0] + ub))",
     "return tuple(x[1:] for x in series_inverse(ring, ([1] + ua, [0] + ub)))",
     "tests/test_keyeq.py::test_single_error_key_series_and_pair"),
    ("series_inverse one term short", "keyeq.py",
     "for k in range(1, len(fa)):",
     "for k in range(1, len(fa) - 1):",
     "tests/test_keyeq.py::test_key_series_reference_word"),
    ("residue_logs at beta^j, not beta^-j", "negacyclic.py",
     "residue_logs = -step * np.arange(n",
     "residue_logs = step * np.arange(n",
     "tests/test_negacyclic.py::test_code_tables_are_pinned"),
    ("x O with the parity of j flipped", "decoder.py",
     "exp[lx + log[ob]] ^ (pa if j & 1 else 0)",
     "exp[lx + log[ob]] ^ (pa if not j & 1 else 0)",
     "tests/test_decoder.py::test_resolve_unit_errors_examples"),
    ("seeded round-0 discrepancy -1 as +1", "solver.py",
     "za, zb = [u, 0, 1, 0], [v, u, 1, 1]",
     "za, zb = [u, 0, 1, 0], [v, u, 0, 1]",
     "tests/test_acceptance.py::test_criterion_3_solver_reference_run"),
    ("2U_0 seeded as 0", "solver.py",
     "za, zb = [u, 0, 1, 0], [v, u, 1, 1]",
     "za, zb = [u, 0, 1, 0], [v, 0, 1, 1]",
     "tests/test_acceptance.py::test_criterion_3_solver_reference_run"),
    ("rounds updated in ascending order", "solver.py",
     "for s in order[::-1]:",
     "for s in order:",
     "tests/test_acceptance.py::test_criterion_3_solver_reference_run"),
    ("pair_strs reversed", "galois_ring.py",
     "return [self.pair_str(a, b) for a, b in zip(*poly)]",
     "return [self.pair_str(a, b) for a, b in zip(*poly)][::-1]",
     "tests/test_decoder.py::test_trace_fields_stable"),
    ("_sweep roots shifted by one", "decoder.py",
     "np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)",
     "(np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0) + 1) % code.n",
     "tests/test_decoder.py::test_locate_error_positions_examples"),
    ("make_ring accepts m = 11", "galois_ring.py",
     "if not 2 <= m <= 10:",
     "if not 2 <= m <= 11:",
     "tests/test_galois_ring.py::test_make_ring_rejects_unsupported"),
    ("carry dropped from the digit corrections", "galois_ring.py",
     "corr[c] = corr[rest] ^ exp[hlog[rest] + hlog[top]]",
     "corr[c] = corr[rest]",
     "tests/test_galois_ring.py::test_digit_round_trip_all_elements"),
    ("ring modulus is the residue, not its lift", "galois_ring.py",
     "self.modulus = tuple(graeffe_lift(residue))",
     "self.modulus = tuple(residue)",
     "tests/test_galois_ring.py::test_make_ring_pinned_moduli"),
    ("make_ring passes the reciprocal residue", "galois_ring.py",
     "return GaloisRing(_PRIMITIVE_GF2[m])",
     "return GaloisRing(_PRIMITIVE_GF2[m][::-1])",
     "tests/test_galois_ring.py::test_make_ring_pinned_moduli"),
    ("antilog array shifted by one", "galois_ring.py",
     "self.exp_array = np.tile(np.array(exp, dtype=np.uint16), order)",
     "self.exp_array = np.tile(np.array(exp[1:] + exp[:1], dtype=np.uint16), order)",
     "tests/test_decoder.py::test_decode_outcome_holds_python_ints"),
    ("lift accepts a residue that is not 0/1", "galois_ring.py",
     "if any(b not in (0, 1) for b in p):",
     "if False:",
     "tests/test_galois_ring.py::test_validation_errors"),
    ("syndrome exponents reduced mod n, not 2n", "negacyclic.py",
     "np.arange(1, 2 * t, 2)) % (2 * n)",
     "np.arange(1, 2 * t, 2)) % n",
     "tests/test_negacyclic.py::test_code_tables_are_pinned"),
    ("minimal_regular t off by one", "solver.py",
     "t = sum(basis.shape) // 2 - 1",
     "t = sum(basis.shape) // 2",
     "tests/test_failure_sites.py::test_failure_site_witness[degrees-exceed]"),
    ("no residual-syndrome guard", "decoder.py",
     "    if _nonzero(syndromes(codeword, code)):",
     "    if False and _nonzero(syndromes(codeword, code)):",
     "tests/test_decoder.py::test_decode_final_guards_refuse_a_wrong_resolution"),
    ("no Lee-distance guard", "decoder.py",
     "    if _LEE[error].sum() > t:",
     "    if False and _LEE[error].sum() > t:",
     "tests/test_decoder.py::test_decode_final_guards_refuse_a_wrong_resolution"),
    ("Z4 product not reduced", "polynomial.py",
     "return poly_strip((np.convolve(f, g) & 3).tolist())",
     "return poly_strip(np.convolve(f, g).tolist())",
     "tests/test_negacyclic.py::test_generators_are_pinned"),
    ("Graeffe from p(x)^2", "galois_ring.py",
     "prod = poly_mul(p, [-c % 4 if i & 1 else c for i, c in enumerate(p)])",
     "prod = poly_mul(p, p)",
     "tests/test_negacyclic.py::test_generators_are_pinned"),
    ("binary product not reduced mod 2", "negacyclic.py",
     "f = [c & 1 for c in poly_mul(f, factor)]",
     "f = poly_mul(f, factor)",
     "tests/test_negacyclic.py::test_generators_are_pinned"),
    ("field accepts a non-primitive modulus", "galois_ring.py",
     "if a != 1 or len(set(exp)) != order:",
     "if False:",
     "tests/test_galois_ring.py::test_field_tables_need_a_primitive_modulus"),
    ("a root of multiplicity 3 or more taken as double", "decoder.py",
     "elif mult == 2:",
     "elif mult >= 2:",
     "tests/test_failure_sites.py::test_failure_site_witness[root-multiplicity]"),
    ("residue locator split check dropped", "decoder.py",
     "if 2 * len(doubles) + len(singles) != len(mu_sigma) - 1:",
     "if False:",
     "tests/test_failure_sites.py::test_failure_site_witness[no-split]"),
    ("both-units check dropped", "decoder.py",
     "if plus and minus:",
     "if False:",
     "tests/test_failure_sites.py::test_failure_site_witness[both-units]"),
    ("resolved error count check dropped", "decoder.py",
     "if len(positions) != len(sa) - 1:",
     "if False:",
     "tests/test_failure_sites.py::test_failure_site_witness[degree-mismatch]"),
    ("sweep degree not reduced mod the order", "decoder.py",
     "np.array([i % order for i in deg], dtype=np.int64)",
     "np.array(deg, dtype=np.int64)",
     "tests/test_decoder.py::test_root_sweep_matches_per_point_loop"),
    ("solution constant term not checked for a unit", "solver.py",
     "if not aa or not aa[0]:",
     "if not aa:",
     "tests/test_failure_sites.py::test_failure_site_witness[not-a-unit]"),
    ("degree bound on a loosened by one", "solver.py",
     "if 2 * (len(aa) - 1) > t + 1 or",
     "if 2 * (len(aa) - 1) > t + 2 or",
     "tests/test_failure_sites.py::test_failure_site_witness[degrees-exceed]"),
    ("the symbol rule takes any number", "negacyclic.py",
     "return isinstance(c, (int, np.integer)) and not",
     "return isinstance(c, (int, float, np.number)) and not",
     "tests/test_negacyclic.py::test_word_inputs_refuse_non_integer_symbols"),
)

PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIER1 = PYTEST + ["--continue-on-collection-errors"]


def _check_mutants() -> None:
    for name, file, old, _, _ in MUTANTS:
        count = (REPO / "src" / PACKAGE / file).read_text().count(old)
        if count != 1:
            sys.exit(f"mutant {name!r}: its old text occurs {count} times in {file}, not once")


def _run(src: Path, command: list[str]) -> tuple[int, str, float]:
    """The exit code and stdout of a pytest command with the package
    imported from src, and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    where = subprocess.run([sys.executable, "-c", f"import {PACKAGE}; print({PACKAGE}.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).is_relative_to(src):
        sys.exit(f"{PACKAGE} imports from {where.strip()}, not from {src}")
    start = time.monotonic()
    done = subprocess.run(command, cwd=REPO, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return done.returncode, done.stdout, time.monotonic() - start


def killed_by(code: int, output: str) -> str | None:
    """What a killer's pytest run, its exit code and stdout, says killed
    the mutant: exit 1 is a failed test.  An error collecting the
    killer's module prints "ERROR collecting" and exits 2, or 4 when
    the node id names a test in that module ("found no collectors").
    None, for a pass (0), a node id that collects nothing (5) or names
    no test (4 with no collection error), or any other code, leaves the
    mutant to the full suite."""
    if code == 1:
        return "a failed test"
    if code in (2, 4) and "ERROR collecting" in output:
        return "an error collecting its module"
    return None


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
                code, _, seconds = _run(src, TIER1)
                print(f"unmutated: exit {code} in {seconds:.1f} s", flush=True)
                if code:
                    print("the unmutated tree fails tier-1; no mutant can be judged")
                    return 1
                continue
            name, file, old, new, killer = mutant
            path = src / PACKAGE / file
            path.write_text(path.read_text().replace(old, new))
            code, output, seconds = _run(src, PYTEST + [killer])
            cause = killed_by(code, output)
            if cause:
                print(f"killed: {name} ({file}) by {killer}, {cause}, in {seconds:.1f} s",
                      flush=True)
                continue
            code, _, full = _run(src, TIER1)
            verdict = "killed" if code else "SURVIVED"
            print(f"{verdict}: {name} ({file}) by the full suite, exit {code}, in "
                  f"{seconds + full:.1f} s; the named killer {killer} is stale", flush=True)
            if not code:
                survivors.append(name)
    killed = len(MUTANTS) - len(survivors)
    print(f"{killed}/{len(MUTANTS)} mutants killed in {time.monotonic() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
