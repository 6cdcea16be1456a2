"""Every public name the package advertises resolves: the names in each
module's __all__, and the names z4negacyclic/__init__.py imports.  So
does every binding the decode benchmark wraps (perfbench/spans.py), and
a decode enters every span it records."""

import ast
import importlib
import importlib.util
import pkgutil
import random
from pathlib import Path

import pytest

import z4negacyclic
from z4negacyclic.decoder import decode
from z4negacyclic.negacyclic import build_code, encode

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

MODULES = sorted(info.name for info in pkgutil.iter_modules(z4negacyclic.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"z4negacyclic.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    tree = ast.parse(Path(z4negacyclic.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "decode" in names and "solve_by_approximations" in names
    assert [n for n in names if not hasattr(z4negacyclic, n)] == []


def test_benchmark_bindings_resolve_and_are_entered():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    code = build_code(255, 4)
    rng = random.Random(19)
    words = []
    for doubles in (0, 1, 2):  # Lee weight 4: the rest are +-1 errors
        for _ in range(5):
            error = [0] * code.n
            positions = rng.sample(range(code.n), 4 - doubles)
            for j, p in enumerate(positions):
                error[p] = 2 if j < doubles else rng.choice((1, 3))
            sent = encode([rng.randrange(4) for _ in range(code.k)], code)
            words.append((sent, [(c + e) % 4 for c, e in zip(sent, error)]))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for sent, received in words:
            assert decode(received, code).codeword == sent
    assert tracer.absent == set()
    assert {s[0] for s in tracer.spans} == {name for name, _, _ in spans.SPANS}
