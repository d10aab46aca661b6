"""Per-layer tracing of clonecorr from outside the package.

Every public function of the layer modules is replaced, in every
``clonecorr`` module namespace that binds it, by a wrapper that records a
span (op, name, start, end, parent) and accumulates calls, self time and
errors. ``from .search import bisect_boundary`` binds the name in
``cloner`` and ``separability`` as well as in ``search``, so patching the
defining module alone would miss those calls.

Self time is a span's duration minus the time covered by its wrapped
children. Spans stay in memory until ``write_spans`` is called; spans of
one op share its op index.
"""

import csv
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cloner", "hermat", "search", "discord", "separability", "cli")
WORK_COUNTS = ("cloner.build_output_batch.matrices", "hermat.jacobi_eigvals.matrices",
               "search.bisect_boundary.pred_evals", "search.golden_min.f_evals",
               "discord.conditional_entropy_curve.angles",
               "separability.scan_grid.grid_points", "cli.records_to_csv.bytes")


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _second(args, kwargs, name):
    return args[1] if len(args) > 1 else kwargs[name]


class Tracer:
    """Wraps the layer functions while active; counters reset per pass."""

    def __init__(self):
        import clonecorr  # noqa: F401  (loads every layer module)

        self.originals = {}   # id(original function) -> (qualified name, function)
        for layer in LAYERS:
            mod = sys.modules[f"clonecorr.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    self.originals[id(fn)] = (f"{layer}.{name}", fn)
        # spans as flat arrays: no per-span objects for the garbage collector
        self.names = []
        self._span_op, self._span_name, self._span_parent = (
            array("q"), array("i"), array("q"))
        self._span_start, self._span_end = array("d"), array("d")
        self._stack = []
        self._patched = []
        self.op = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.work = defaultdict(float)
        self._alphas_seen = set()
        self.wrappers = {key: self._wrap(qual, fn) for key, (qual, fn) in self.originals.items()}

    # counters -----------------------------------------------------------

    def reset(self):
        """Zero the per-pass counters (spans are kept)."""
        for counter in (self.calls, self.self_s, self.errors, self.work, self._alphas_seen):
            counter.clear()

    def snapshot(self):
        """Per-layer values accumulated since the last reset, by metric name."""
        out = {}
        for qual, _ in self.originals.values():
            out[f"{qual}.calls"] = self.calls[qual]
            out[f"{qual}.self_s"] = self.self_s[qual]
            out[f"{qual}.errors"] = self.errors[qual]
        vjr_calls = self.calls["cloner.valid_j_range"]
        out["cloner.valid_j_range.repeat_ratio"] = (
            self.work["valid_j_range.repeats"] / vjr_calls if vjr_calls else 0.0)
        for key in WORK_COUNTS:
            out[key] = self.work[key]
        return out

    # work counts taken at the layer boundary ------------------------------

    def _hooks(self, qual):
        """(before, after) work-count hooks for one function, or None each.

        ``before(args, kwargs)`` may return replacement arguments, which is
        how the search helpers' callbacks get counted.
        """
        work = self.work

        def count(key, amount_of):
            def before(args, kwargs):
                work[key] += amount_of(args, kwargs)
                return args, kwargs
            return before

        def count_callback(param, key):
            def before(args, kwargs):
                inner = _first(args, kwargs, param)

                def counted(x):
                    work[key] += 1
                    return inner(x)

                if args:
                    return (counted,) + tuple(args[1:]), kwargs
                return args, dict(kwargs, **{param: counted})
            return before

        def note_alpha(args, kwargs):
            state = _first(args, kwargs, "state")
            alpha = float(getattr(state, "alpha", state))
            if alpha in self._alphas_seen:
                work["valid_j_range.repeats"] += 1
            self._alphas_seen.add(alpha)
            return args, kwargs

        before = {
            "cloner.build_output_batch": count(
                "cloner.build_output_batch.matrices", lambda a, k: np.size(_second(a, k, "js"))),
            "hermat.jacobi_eigvals": count(
                "hermat.jacobi_eigvals.matrices",
                lambda a, k: int(np.prod(np.shape(_first(a, k, "mats"))[:-2]))),
            "discord.conditional_entropy_curve": count(
                "discord.conditional_entropy_curve.angles",
                lambda a, k: np.size(_second(a, k, "ts"))),
            "cloner.valid_j_range": note_alpha,
            "search.bisect_boundary": count_callback("pred", "search.bisect_boundary.pred_evals"),
            "search.golden_min": count_callback("f", "search.golden_min.f_evals"),
        }

        def add(key, amount):
            work[key] += amount

        after = {
            "separability.scan_grid": lambda r: add(
                "separability.scan_grid.grid_points", len(r[0])),
            "cli.records_to_csv": lambda r: add("cli.records_to_csv.bytes", len(r.encode())),
        }
        return before.get(qual), after.get(qual)

    def _wrap(self, qual, fn):
        clock = time.perf_counter
        before, after = self._hooks(qual)
        name_id = len(self.names)
        self.names.append(qual)
        stack = self._stack
        ops, name_ids, starts, ends, parents = (
            self._span_op, self._span_name, self._span_start, self._span_end, self._span_parent)

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(starts)
            ops.append(self.op)
            name_ids.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[qual] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                ends[index] = end
                self.calls[qual] += 1
                self.self_s[qual] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # patching -------------------------------------------------------------

    def __enter__(self):
        for modname, mod in list(sys.modules.items()):
            if modname != "clonecorr" and not modname.startswith("clonecorr."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self.wrappers.get(id(value))
                if wrapper is not None and self.originals[id(value)][1] is value:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    @property
    def span_count(self):
        return len(self._span_start)

    def write_spans(self, path):
        """Write every span as CSV: index, op, name, start_s, end_s, parent index."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "op", "name", "start_s", "end_s", "parent"])
            for index in range(self.span_count):
                writer.writerow([index, self._span_op[index],
                                 self.names[self._span_name[index]],
                                 repr(self._span_start[index]), repr(self._span_end[index]),
                                 self._span_parent[index]])
