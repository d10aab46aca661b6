"""The copier's closed forms in clonecorr._model: the exact g and the module's imports."""

import ast
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np

from clonecorr._model import _exact_k, _g_exact, _g_roots, qubit_entropy

MODEL_PATH = pathlib.Path(__file__).resolve().parents[1] / "src" / "clonecorr" / "_model.py"

_RNG = np.random.default_rng(31)
SEEDED_POINTS = list(zip(_RNG.uniform(-1.0, 1.0, 300).tolist(),
                         _RNG.uniform(0.0, 0.5, 300).tolist()))
EDGE_POINTS = [(alpha, j) for alpha in (0.0, 1.0, -1.0, 1e-5)
               for j in (0.0, 1e-300, 1 / 6, 0.2, 0.25, 1 / 3, 0.5)]


def g_fraction(alpha, j):
    """g(j) = k (1 - 2j)^2 (6j - 1) - 2j^3 in Fraction arithmetic, rounded once."""
    a, j = Fraction(alpha), Fraction(j)
    k = a * a * (1 - a * a)
    return float(k * (1 - 2 * j) ** 2 * (6 * j - 1) - 2 * j ** 3)


def near_roots(alpha):
    """j within 1e-9 of each of g's roots at alpha, float neighbours of each root included."""
    (r1, r2), = _g_roots(alpha)
    js = []
    for r in (r1, r2):
        js += [r + d for d in np.linspace(-1e-9, 1e-9, 41).tolist()]
        js += [math.nextafter(r, 0.0), r, math.nextafter(r, 1.0)]
    return js


class TestExactG:
    def test_equals_fraction_arithmetic_rounded_once(self):
        points = SEEDED_POINTS + EDGE_POINTS + [(0.7, j) for j in near_roots(0.7)]
        for alpha, j in points:
            kn, kd = _exact_k(alpha)
            assert _g_exact(kn, kd, j) == g_fraction(alpha, j), (alpha, j)

    def test_changes_sign_across_each_root(self):
        # the near-root points above straddle the roots: g < 0 outside [r1, r2], > 0 inside
        kn, kd = _exact_k(0.7)
        (r1, r2), = _g_roots(0.7)
        for r, outside in ((r1, -1e-9), (r2, 1e-9)):
            assert _g_exact(kn, kd, r + outside) < 0.0 < _g_exact(kn, kd, r - outside)


class TestQubitEntropy:
    def test_maximally_mixed_is_one_bit_exactly(self):
        assert qubit_entropy(1.0, 0.0) == 1.0

    def test_pure_is_zero_bits_exactly(self):
        h = qubit_entropy(1.0, 1.0)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_length_an_ulp_above_the_trace_stays_finite_and_nonnegative(self):
        # a rounded |r| can exceed tr by an ulp; its eigenvalue (tr - r)/2 < 0 adds 0
        for tr in (1.0, 0.3, 1.0 - 1e-12):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                h = qubit_entropy(tr, math.nextafter(tr, 2.0))
            assert math.isfinite(h) and h >= 0.0

    def test_eigenvalue_rounded_above_one_adds_nothing(self):
        # -x log2 x < 0 for x > 1: a pure qubit's rounded trace adds 0, not a negative
        for tr in (math.nextafter(1.0, 2.0), 1.0 + 8 * math.ulp(1.0)):
            h = qubit_entropy(tr, tr)
            assert h == 0.0 and math.copysign(1.0, h) == 1.0


def module_level_imports(tree):
    """Dotted names that the module's top level imports, outside any def or class."""
    names, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names += [f"{base}.{alias.name}" for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_model_imports_neither_numpy_nor_hermat():
    names = module_level_imports(ast.parse(MODEL_PATH.read_text()))
    assert "math" in names
    for name in names:
        assert not {"numpy", "hermat"} & set(name.split(".")), name
