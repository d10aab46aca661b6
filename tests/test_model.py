"""The copier's closed forms in clonecorr._model: the exact verdict, the window ends and
the module's imports."""

import ast
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

from clonecorr import _model
from clonecorr._model import _exact_k, _g_roots, _separable, qubit_entropy

MODEL_PATH = pathlib.Path(__file__).resolve().parents[1] / "src" / "clonecorr" / "_model.py"

_RNG = np.random.default_rng(31)
SEEDED_POINTS = list(zip(_RNG.uniform(-1.0, 1.0, 300).tolist(),
                         _RNG.uniform(0.0, 0.5, 300).tolist()))
EDGE_POINTS = [(alpha, j) for alpha in (0.0, 1.0, -1.0, 1e-5)
               for j in (0.0, 1e-300, 1 / 6, 0.2, 0.25, 1 / 3, 0.5)]


def g_fraction(alpha, j):
    """g(j) = k (1 - 2j)^2 (6j - 1) - 2j^3 in Fraction arithmetic, exact."""
    a, j = Fraction(alpha), Fraction(j)
    k = a * a * (1 - a * a)
    return k * (1 - 2 * j) ** 2 * (6 * j - 1) - 2 * j ** 3


def near_roots(alpha):
    """j within 1e-9 of each of g's roots at alpha, float neighbours of each root included."""
    (r1, r2), = _g_roots(alpha)
    js = []
    for r in (r1, r2):
        js += [r + d for d in np.linspace(-1e-9, 1e-9, 41).tolist()]
        js += [math.nextafter(r, 0.0), r, math.nextafter(r, 1.0)]
    return js


class TestExactG:
    def test_verdict_is_the_sign_of_fraction_arithmetic(self):
        # g >= 0 for j > 0, and W4 = (j/2) g = 0 at j = 0
        points = SEEDED_POINTS + EDGE_POINTS + [(0.7, j) for j in near_roots(0.7)]
        for alpha, j in points:
            assert _separable(*_exact_k(alpha), j) == (j == 0.0 or g_fraction(alpha, j) >= 0), (
                alpha, j)

    def test_changes_sign_across_each_root(self):
        # the near-root points above straddle the roots: g < 0 outside [r1, r2], > 0 inside
        kn, kd = _exact_k(0.7)
        (r1, r2), = _g_roots(0.7)
        for r, outside in ((r1, -1e-9), (r2, 1e-9)):
            assert not _separable(kn, kd, r + outside) and _separable(kn, kd, r - outside)


class TestWindowEnds:
    @pytest.mark.parametrize("alpha", [0.5498705722617608, 0.8352498750437043])
    def test_end_search_at_the_onset_floats_is_logarithmic(self, monkeypatch, alpha):
        # the Viete values lie about 1e6 and 3e6 ulp from these ends; a walk of
        # one ulp at a time would take millions of exact signs
        calls = []
        separable = _model._separable
        monkeypatch.setattr(_model, "_separable", lambda *a: calls.append(a) or separable(*a))
        (r1, r2), = _g_roots(alpha)
        assert 2 <= len(calls) <= 100
        kn, kd = _exact_k(alpha)
        assert separable(kn, kd, r1) and not separable(kn, kd, math.nextafter(r1, 0.0))
        assert separable(kn, kd, r2) and not separable(kn, kd, math.nextafter(r2, 1.0))


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
