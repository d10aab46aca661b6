import pytest

from clonecorr.search import golden_min


class TestGoldenMin:
    def test_returns_best_evaluated_point(self):
        # on |x - 0.3| the final midpoint lies farther from the kink than an
        # interior point already evaluated
        seen = []

        def f(x):
            seen.append(abs(x - 0.3))
            return seen[-1]

        x, fx = golden_min(f, 0.0, 1.0, 1e-3)
        assert fx == abs(x - 0.3)
        assert fx == min(seen)
        assert fx < 1e-4

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            golden_min(abs, 1.0, 1.0)
