"""Tests of the benchmark itself; run with ``python3 -m pytest bench/test_bench.py``.

They check the layer-by-workload matrix the traced run must show, that
tracing changes no output, that every binding of a layer function is
traced, and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Session  # noqa: E402

# a few ops of each workload; the points slice includes one phase query
OPS = {"sweep": 1, "windows": 3, "points": 4}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: the session (untraced then traced pass) and the layer snapshot."""
    out = {}
    for name, n_ops in OPS.items():
        wl = workloads.WORKLOADS[name](0, str(tmp_path_factory.mktemp(name)))
        wl.ops = wl.ops[:n_ops]
        session = Session(wl)
        _, expected = session.run_pass()
        with Tracer() as tracer:
            session.run_pass(expected=expected, tracer=tracer)
        out[name] = (session, tracer.snapshot())
    return out


def calls(snapshot, prefix):
    return sum(v for k, v in snapshot.items() if k.startswith(prefix) and k.endswith(".calls"))


def test_traced_outputs_equal_untraced_and_pass_checks(traced):
    for name, (session, _) in traced.items():
        assert session.attempted == 2 * OPS[name]
        assert session.failed == 0, session.problems


def test_search_runs_on_windows_and_points_only(traced):
    assert calls(traced["sweep"][1], "search.") == 0
    for name in ("windows", "points"):
        snap = traced[name][1]
        assert calls(snap, "search.") > 0
        assert snap["search.bisect_boundary.pred_evals"] > 0
    assert traced["points"][1]["search.golden_min.f_evals"] > 0


def test_layer_matrix(traced):
    sweep, windows, points = (traced[n][1] for n in ("sweep", "windows", "points"))
    assert sweep["cli.records_to_csv.calls"] == 1
    assert sweep["cli.records_to_csv.bytes"] > 0
    assert windows["cli.records_to_csv.calls"] == points["cli.records_to_csv.calls"] == 0
    assert calls(windows, "discord.") == 0
    assert sweep["hermat.jacobi_eigvals.matrices"] == 2 * 99
    assert windows["cloner.valid_j_range.repeat_ratio"] == 0.5
    assert points["discord.conditional_entropy_curve.angles"] > 721 * 721


def test_every_binding_is_traced_and_restored():
    from clonecorr import cloner, search, separability

    original = search.bisect_boundary
    with Tracer():
        assert cloner.bisect_boundary is search.bisect_boundary is separability.bisect_boundary
        assert cloner.bisect_boundary.__wrapped__ is original
    assert cloner.bisect_boundary is search.bisect_boundary is original


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "windows", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_declared_metric(trace):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
