"""Run one benchmark workload in a fresh interpreter (started by run.py).

The worker imports clonecorr from ``src/`` of the checkout, builds the
workload's inputs from the seed, runs one untimed warm-up op and prints
``ready``, then the host slowness measured right after. With
``--setup-only`` it stops there. Otherwise it runs whole
passes over the workload's ops until ``--seconds`` is spent and prints
one JSON line with the measurements.

With ``--trace 1`` the first half of the time runs untraced passes and
the second half traced ones; per-layer values are medians over traced
passes of their per-pass totals, and every traced output must equal the
untraced one.
"""

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MAX_PROBLEMS = 20   # problem messages kept in the result
REFERENCE_KERNEL_S = 1e-3   # each calibration kernel on the reference host


def host_slowness():
    """How much slower than the reference host this process runs right now.

    The machine this benchmark was tuned on is shared: for seconds to
    minutes at a time it runs the same code up to 1.8x slower. Two short
    kernels of the kinds of work clonecorr does, a pure-Python loop and a
    loop of 4x4 numpy calls, are timed; the result is the geometric mean
    of their times over REFERENCE_KERNEL_S (about 1 on a quiet host).
    """
    import numpy as np

    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    python_s = time.perf_counter() - start
    b = np.eye(4) * 0.5
    a = b.copy()
    start = time.perf_counter()
    for _ in range(300):
        a = a @ b + b
        np.sort(a[:, 0])
        np.hypot(a[0], a[1])
    numpy_s = time.perf_counter() - start
    return math.sqrt(python_s * numpy_s) / REFERENCE_KERNEL_S


def fingerprint(value):
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Session:
    """Runs passes over one workload and accounts every op."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latencies = {}   # op -> (seconds, host slowness) of each successful repetition
        self._checked = {}    # (op, fingerprint) -> problems

    def run_pass(self, expected=None, tracer=None, pass_index=0):
        """One pass over the ops; returns (seconds inside ops, fingerprint per op)."""
        wl = self.workload
        busy, prints = 0.0, {}
        slowness = host_slowness()
        for k, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = pass_index * len(wl.ops) + k
            self.attempted += 1
            start = time.perf_counter()
            try:
                raw = wl.run(op)
                elapsed = time.perf_counter() - start
                value = wl.settle(op, raw)
                fp = fingerprint(value)
                if (op, fp) not in self._checked:
                    self._checked[(op, fp)] = wl.check(op, value)
                problems = list(self._checked[(op, fp)])
                if expected is not None and expected.get(op) != fp:
                    problems.append(f"{op}: traced output differs from untraced output")
            except Exception as exc:  # a raising op is a failed op; keep measuring
                elapsed = time.perf_counter() - start
                fp = None
                problems = [f"{op}: {type(exc).__name__}: {exc}"]
            busy += elapsed
            prints[op] = fp
            after = host_slowness()   # brackets the op (and, on its first pass, its check)
            if problems:
                self.failed += 1
                self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])
            else:
                self.latencies.setdefault(op, []).append((elapsed, 0.5 * (slowness + after)))
            slowness = after
        return busy, prints

    def run_for(self, seconds, expected=None, tracer=None):
        """Whole passes until the next one would overrun `seconds` (at least one)."""
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            if tracer is not None:
                tracer.reset()
            busy, prints = self.run_pass(expected, tracer, len(passes))
            layers = tracer.snapshot() if tracer is not None else None
            passes.append({"busy": busy, "prints": prints, "layers": layers,
                           "wall": time.perf_counter() - pass_start})
            typical = statistics.median(p["wall"] for p in passes)
            if time.perf_counter() - start + typical > seconds:
                return passes


def end_to_end(session, passes):
    """End-to-end metrics in seconds of the reference host.

    Each repetition of an op is divided by the host slowness measured
    around it, and an op's latency is the median over its repetitions in
    the run (one per pass). Percentiles are taken across the distinct ops
    of a pass; ops_per_s is their count over the sum of their latencies.
    The wall-clock figures are kept in the run record.
    """
    import numpy as np

    ops = [op for op in session.workload.ops if op in session.latencies]
    if not ops:
        raise RuntimeError(f"no op succeeded: {session.problems[:3]}")
    reps = [session.latencies[op] for op in ops]
    norm = [statistics.median(s / slow for s, slow in r) for r in reps]
    wall = [statistics.median(s for s, _ in r) for r in reps]
    p50, p90 = np.percentile(norm, [50, 90])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(norm) / sum(norm), "1/s"),
        "op_p50_ms": (1e3 * float(p50), "ms"),
        "op_p90_ms": (1e3 * float(p90), "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }, {"passes": len(passes), "distinct_ops_timed": len(norm),
        "ops_beyond_p90": int(sum(x > p90 for x in norm)),
        "host_slowness_median": statistics.median(slow for r in reps for _, slow in r),
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_ms": 1e3 * float(np.percentile(wall, 50)),
        "wall_op_p90_ms": 1e3 * float(np.percentile(wall, 90))}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def per_layer(session, seconds):
    from tracer import Tracer

    plain = session.run_for(seconds / 2.0)
    expected = plain[0]["prints"]
    with Tracer() as tracer:
        traced = session.run_for(seconds / 2.0, expected=expected, tracer=tracer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{session.workload.name}.csv")

    metrics = {}
    for name in traced[0]["layers"]:
        value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = (value, layer_unit(name))
    overhead = (statistics.median(p["busy"] for p in traced)
                / statistics.median(p["busy"] for p in plain))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, {"passes": len(plain), "traced_passes": len(traced),
                     "spans": tracer.span_count,
                     "repeat_ratio": metrics["cloner.valid_j_range.repeat_ratio"][0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import clonecorr
    if not Path(clonecorr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: clonecorr imported from {clonecorr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        first = workload.ops[0]
        workload.settle(first, workload.run(first))   # untimed warm-up
        print("ready", flush=True)
        print(statistics.median(host_slowness() for _ in range(3)), flush=True)
        if args.setup_only:
            return 0

        session = Session(workload)
        if args.trace:
            metrics, run_info = per_layer(session, args.seconds)
        else:
            metrics, run_info = end_to_end(session, session.run_for(args.seconds))
        result = {
            "attempted": session.attempted,
            "failed": session.failed,
            "problems": session.problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "run": run_info,
            "properties": workload.properties(),
            "env": {"python": platform.python_version(), "numpy": np.__version__,
                    "clonecorr": clonecorr.__version__},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
