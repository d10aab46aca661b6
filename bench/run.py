"""clonecorr benchmark: one closed-loop client, one process, one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,windows,points} --seed N \\
        --seconds S --trace {0,1}

Each workload runs in fresh interpreters (bench/worker.py) with the BLAS
thread counts pinned to 1. With ``--trace 0`` the benchmark starts the
worker SETUP_REPS times; ``setup_s`` is the median time from process start
to ready (import, input generation, one warm-up op), and the last worker
goes on to the timed passes that give ``ops_per_s``, ``op_p50_ms``,
``op_p90_ms`` and ``peak_rss_mb``.

Times are reported in seconds of a reference host: every measured time is
divided by the host slowness measured next to it (see
``worker.host_slowness``), because the shared machine the benchmark was
tuned on drifts by up to 1.8x for minutes at a time. Wall-clock figures
are printed and kept in the record as ``wall_*``. With ``--trace 1`` one worker runs
untraced and then traced passes and reports the per-layer metrics: calls,
self time and errors of every public layer function per pass, the work
counts, and ``trace.overhead_ratio``.

Every op's output is checked (see workloads.py); a raise or a failed
check is a failed op. The metrics reported are exactly those declared in
BENCHMARK.json. The last stdout line is the JSON result; the full record,
with the run environment and workload properties, is written to
``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep", "windows", "points")
SETUP_REPS = 7
DEADLINE_S = 170.0   # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline, setup_only):
    """Run one worker to the end.

    Returns the seconds from its start to ready, the host slowness it
    measured right after, and its last stdout line.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            slowness = proc.stdout.readline()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready, float(slowness), lines[-1] if lines else None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None   # checkouts without .git


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    env = {"nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
           "git_sha": git_sha(), "python_executable": sys.executable}
    setups = []   # (wall seconds to ready, host slowness right after)
    for _ in range(SETUP_REPS - 1 if not args.trace else 0):
        setups.append(run_worker(args, deadline, setup_only=True)[:2])
    ready, slowness, line = run_worker(args, deadline, setup_only=False)
    setups.append((ready, slowness))
    if line is None:
        raise BenchError("worker printed no result")
    result = json.loads(line)
    result["env"].update(env)
    result["setup_runs"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s / slow for s, slow in setups), "unit": "s"}
        result["run"]["wall_setup_s"] = statistics.median(s for s, _ in setups)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="clonecorr benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    if not (ROOT / "src" / "clonecorr" / "__init__.py").is_file():
        print(f"error: no clonecorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        declared = declared_metrics(args.trace)
        full = measure(args)
        metrics = {}
        for name, unit in declared:
            got = full["metrics"].get(name)
            if got is None or got["unit"] != unit:
                raise BenchError(f"metric {name} [{unit}] not produced as declared: {got}")
            metrics[name] = got
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = full["attempted"], full["failed"]
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(full, workload=vars(args)), indent=1) + "\n")

    for problem in full["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for key, value in sorted(full["env"].items()):
        print(f"env {key} = {value}")
    for key, value in sorted({**full["properties"], **full["run"]}.items()):
        print(f"workload {args.workload} {key} = {value}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
