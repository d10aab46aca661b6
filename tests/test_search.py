import pytest

from clonecorr.search import bisect_boundary, golden_min

BAD_TOLS = [0.0, -1e-6, float("nan"), float("inf")]


def budgeted(fn, limit=10_000):
    """fn, failing the test instead of looping past limit calls."""
    calls = 0

    def wrapped(x):
        nonlocal calls
        calls += 1
        assert calls <= limit, "search did not stop"
        return fn(x)

    return wrapped


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

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError):
            golden_min(budgeted(abs), 0.0, 1.0, tol)

    def test_stops_below_float_resolution(self):
        x, fx = golden_min(budgeted(lambda x: (x - 0.3) ** 2), 0.0, 1.0, 1e-300)
        assert abs(x - 0.3) < 1e-15 and fx < 1e-30
        # a bracket one float spacing wide cannot shrink at all
        x, _ = golden_min(budgeted(abs), 1.0, 1.0000000000000002, 1e-30)
        assert 1.0 <= x <= 1.0000000000000002


class TestBisectBoundary:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError):
            bisect_boundary(budgeted(lambda x: x > 0.3), 0.0, 1.0, tol)

    def test_stops_below_float_resolution(self):
        for pred, x_false, x_true in ((lambda x: x > 0.3, 0.0, 1.0),
                                      (lambda x: x < 0.3, 1.0, 0.0)):
            x = bisect_boundary(budgeted(pred), x_false, x_true, 1e-300)
            assert abs(x - 0.3) <= 1e-16

    def test_library_tolerances_unchanged(self):
        # values before the float-resolution stop existed; at these
        # tolerances the brackets never get that narrow
        assert bisect_boundary(lambda x: x > 0.3, 0.0, 1.0, 1e-6) == 0.2999997138977051
        assert golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-9) == (
            0.2999999999641477, 1.285384948707904e-21)
