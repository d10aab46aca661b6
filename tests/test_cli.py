import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import statistics
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import clonecorr.cli as cli
from clonecorr import (build_output_state, classify, clone_fidelity, cloner, discord, discord_at,
                       discord_min, discord_surface, hermat, separability, valid_j_range,
                       w3_closed, w4_closed)
from clonecorr._model import _exact_k, _separable
from clonecorr.cli import (CSV_HEADER, ConfigError, RunConfig, build_config,
                           load_config_file, main, table1_rows)
from clonecorr.errors import DomainError
from clonecorr.hermat import eig_sym4, vn_entropy
from clonecorr.separability import ppt_data
from oracles import surface_text_rows

SMALL_SURFACE = ["--alpha", "0.3,0.7", "--j-min", "0.17", "--j-max", "0.3",
                 "--j-step", "0.01", "--t-points", "13"]


# 40 physical points: the edges of the input and machine ranges, then a seeded sample
_RNG = np.random.default_rng(22)
REPORT_POINTS = [(alpha, j) for alpha in (0.0, 1.0, -1.0, 2 ** -0.5) for j in (1 / 6 + 1e-9, 0.5)]
REPORT_POINTS += zip(_RNG.uniform(-1.0, 1.0, 32).tolist(), _RNG.uniform(1 / 6, 0.5, 32).tolist())


# sha256 of `point ALPHA J --format json`, keyed by (ALPHA, J); the digests
# are not in the test ids, so a re-pin keeps each test's name
POINT_JSON_DIGESTS = {
    ("0.7", "0.22"): "2edfb5ec0896cdd93d22de74cfe25ba360131d1b32e560de8c95cf3934434e46",
    ("1.0", "0.3"): "9d7745d617c990679f955884f75589e83500fce2d52c6ef984e71aabc3c62861",
    ("0.5", "0.5"): "ed1d4737103817bf3f981572458f71be5466fdebb30be4b45f597f53a695a90f",
    ("0.9", "0.19"): "d6db4a29585d31801db2ec5896592a465934854f67f7f05db78a1af2f4251662",
    ("0.0", "0.3"): "4bfe835fb2ff25e12192c3985d051aba5e3841da50eb90ade831ce3de70d7588",
}
# sha256 of `table1 --alpha 0.5,0.7 --format FMT`'s file, keyed by FMT, likewise
TABLE1_DIGESTS = {
    "csv": "aeeaaa5972648ab643c38afed676adc702fe63d72a3b011239db01f071cd82ff",
    "json": "58511265335dd5279f2ffa3e3545e06b36e6d2978a7b07b6d3253674b9141bce",
}
# table1 runs whose rows TABLE1_DIGESTS does not cover: (argv, the reference window
# patched in at 0.6 or None, exit code). "unscored" has a row outside the reference
# table beside two product rows; "mismatch" scores 0.6 against a wrong window.
TABLE1_CASES = {
    "unscored": (["--alpha", "0.65,0,1"], None, 0),
    "mismatch": (["--alpha", "0.6,0.65,0.3"], (0.10, 0.15), 3),
}
# sha256 of each case's file, keyed by FMT, and of its printed table without the
# "wrote" line, keyed by "table"
TABLE1_CASE_DIGESTS = {
    "unscored": {
        "csv": "9baff19ca5c1b4fef6cff31c9fedf80dcc7d4975edd9b16fbfe4ec79f20f058a",
        "json": "8f46c6f73637a14c612a4531efaf5e6de3ef19a1aefc882038dfb7791ae64fad",
        "table": "368d44456676064c95d14c04bc57494e481085150d81640e7b6e0bd864d26675",
    },
    "mismatch": {
        "csv": "d09d96c89a8604384028f3bfd1ef8b1ad2bf8dc4fff32b2245cf2de35f902701",
        "json": "2b6d9905e0cd8f63cac54013184d14a240748e41f88f2e28dda49e08f2846b5b",
        "table": "7cbc4fbfc9c917953824918b41e6712fb124aa93bc6e5db16e5ae5212da24fba",
    },
}

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"
# minor page faults of each default surface file after 5 warm-up files, in a fresh process
SURFACE_FAULTS = """
import io, resource, sys
from clonecorr import cli
cfg = cli.RunConfig()
cfg.output_path = sys.argv[1]
cfg.validate()
for k in range(5 + 18):
    cfg.alpha_list = [round(0.1 * (1 + k % 9), 1)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.run_surface(cfg, out_stream=io.StringIO())
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _first_line_difference(got, want):
    """(line index, got line, wanted line) where two texts first differ."""
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    return next((i, g, w) for i, (g, w) in enumerate(pairs) if g != w)


def _assert_writers_match_row_oracle(grid):
    for fmt, writer in (("csv", cli.records_to_csv), ("json", cli.records_to_json)):
        got, want = writer(grid), surface_text_rows(grid, fmt)
        same = got == want     # outside the assert: no pytest diff of megabyte strings
        assert same, (fmt, _first_line_difference(got, want))


class TestConfig:
    def test_defaults_mirror_sweep_conventions(self):
        cfg = RunConfig()
        assert cfg.alpha_list == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        assert (cfg.j_min, cfg.j_max, cfg.j_step) == (0.01, 0.50, 0.005)
        assert len(cfg.j_grid()) == 99
        assert cfg.t_grid()[0] == 0.0 and cfg.t_grid()[-1] == pytest.approx(np.pi / 2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(alpha_list=[]).validate()
        with pytest.raises(ConfigError):
            RunConfig(j_min=0.4, j_max=0.2).validate()
        with pytest.raises(ConfigError):
            RunConfig(j_max=0.7).validate()
        with pytest.raises(ConfigError):
            RunConfig(output_format="yaml").validate()
        with pytest.raises(ConfigError, match="t_points must be >= 1, got 0"):
            RunConfig(t_points=0).validate()

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep setup\n"
            "alpha_list = 0.2, 0.4\n"
            "j_step = 0.01   # coarse\n"
            "t_points = 7\n"
            "output_format = json\n"
            "output_path = runs/a b\n")
        values = load_config_file(path)
        # each value through its flag's type, or kept as text where the flag has none
        assert values == {"alpha_list": [0.2, 0.4], "j_step": 0.01, "t_points": 7,
                          "output_format": "json", "output_path": "runs/a b"}
        assert type(values["t_points"]) is int

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("j_stepp = 0.01\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("j_step = 0.01\nt_points = 5\n")

        class Args:
            config = str(path)
            alpha_list = None
            j_min = None
            j_max = None
            j_step = 0.02
            t_points = None
            output_format = None
            output_path = None
            seed = None

        cfg = build_config(Args(), "surface")
        assert cfg.j_step == 0.02      # flag wins
        assert cfg.t_points == 5       # file value survives

    @pytest.mark.parametrize("command", ["surface", "table1", "selftest"])
    def test_scan_phase_is_not_a_sweep_option(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scan-phase", "--out", str(tmp_path / "out")])
        assert exc.value.code == cli.EXIT_CONFIG
        path = tmp_path / "run.cfg"
        path.write_text("scan_phase = true\n")
        assert main([command, "--config", str(path)]) == cli.EXIT_CONFIG

    def test_grid_row_cap(self, tmp_path, monkeypatch, capsys):
        # only validate() and main() run here: no grid is ever built
        RunConfig(j_min=0.2, j_max=0.2, t_points=cli.MAX_GRID_ROWS).validate()
        for bad in (RunConfig(j_min=0.2, j_max=0.2, t_points=cli.MAX_GRID_ROWS + 1),
                    RunConfig(t_points=10**9), RunConfig(j_step=1e-300),
                    RunConfig(j_step=5e-324)):
            with pytest.raises(ConfigError):
                bad.validate()

        def refuse(*args, **kwargs):
            raise AssertionError("oversized grid reached run_surface")

        monkeypatch.setattr(cli, "run_surface", refuse)
        rc = main(["surface", "--t-points", "1000000000", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "rows per alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--j-step", "nan"), ("--j-step", "inf"),
                                            ("--j-min", "nan"), ("--j-max", "inf")])
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, flag, value):
        with pytest.raises(ConfigError):
            RunConfig(**{flag[2:].replace("-", "_"): float(value)}).validate()
        rc = main(["surface", flag, value, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_alpha_domain_is_that_of_the_library(self, tmp_path, capsys):
        RunConfig(alpha_list=[-1.0, -0.7, 0.0, 1.0]).validate()
        for bad in (1.5, -1.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
                RunConfig(alpha_list=[bad]).validate()
        assert main(["surface", "--alpha", "1.5", "--out", str(tmp_path / "out")]) == 2
        assert "[-1, 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["surface", "--alpha=-0.7,0.7", "--j-min", "0.3", "--j-max", "0.3",
                     "--t-points", "2", "--out", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "surface_alpha-0.7.csv", "surface_alpha0.7.csv"]

    @pytest.mark.parametrize("line,message", [
        ("j_step 0.01", ":1: expected key=value, got 'j_step 0.01'"),
        ("= 0.01", ":1: expected key=value, got '= 0.01'"),
        ("t_points = five", ":1: bad value for t_points: invalid literal for int()"),
        ("alpha_list = 0.2, x", ":1: bad value for alpha_list: could not convert"),
        # the retired row filter's key is unknown like any other
        ("enforce_psd = true", ":1: unknown key 'enforce_psd'"),
    ])
    @pytest.mark.parametrize("command", ["surface", "table1", "selftest"])
    def test_malformed_config_line_exits_2(self, tmp_path, monkeypatch, capsys, command, line,
                                           message):
        monkeypatch.chdir(tmp_path)
        pathlib.Path("bad.cfg").write_text(line + "\n")
        assert main([command, "--config", "bad.cfg"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"error: bad.cfg{message}" in captured.err
        assert "Traceback" not in captured.err and not captured.out
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    def test_retired_enforce_psd_flag_exits_2(self, tmp_path, capsys):
        # --j-min 0.17 keeps the copier rows that the flag kept on the default grid
        with pytest.raises(SystemExit) as exc:
            main(["surface", "--enforce-psd", "--out", str(tmp_path / "out")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --enforce-psd" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert "enforce_psd" not in cli.OPTIONS
        assert [f.name for f in dataclasses.fields(RunConfig)] == list(cli.OPTIONS)

    def test_empty_t_grid_exits_2(self, tmp_path, capsys):
        rc = main(["surface", "--t-points", "0", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: t_points must be >= 1, got 0" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", ["surface", "table1"])
    def test_empty_output_path_exits_2(self, tmp_path, monkeypatch, capsys, command, source):
        # an empty path names no directory: table1 would write no file, and surface
        # would write into ./surface_out
        monkeypatch.chdir(tmp_path)
        if source == "flag":
            argv = ["--out", ""]
        else:
            (tmp_path / "run.cfg").write_text("output_path =\n")
            argv = ["--config", "run.cfg"]
        grid = SMALL_SURFACE if command == "surface" else ["--alpha", "0.6"]
        assert main([command, *grid, *argv]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "output_path (--out) must not be empty" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "surface_out").exists()
        assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if source == "file" else [])

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("j_min = 0.4\nj_max = 0.1\n")
        rc = main(["surface", "--config", str(cfg)])
        assert rc == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"j_step = 0.01\n\xff\n")
        assert main(["table1", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.cfg" in err and "UTF-8" in err

    @pytest.mark.parametrize("argv", [["selftest", "--j-step", "0.1"],
                                      ["selftest", "--alpha", "0.5"],
                                      ["table1", "--t-points", "5"],
                                      ["surface", "--seed", "1"]])
    def test_subcommands_reject_flags_they_do_not_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == cli.EXIT_CONFIG

    def test_shared_config_applies_only_the_keys_a_command_reads(self, tmp_path, capsys):
        # j_step is a surface key: selftest and table1 ignore its bad value
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("j_step = 0\nseed = 3\n")
        assert main(["selftest", "--config", str(cfg)]) == cli.EXIT_OK
        assert "OK: 5 of 5" in capsys.readouterr().out
        assert main(["table1", "--alpha", "0.7", "--config", str(cfg)]) == cli.EXIT_OK
        capsys.readouterr()
        rc = main(["surface", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "j_step must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("order", [("surface", "table1"), ("table1", "surface")])
    def test_shared_config_output_path_serves_both_writers(self, tmp_path, order):
        # output_path names a directory for surface and table1 alike
        out = tmp_path / "results"
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"alpha_list = 0.7\nj_min = 0.2\nj_max = 0.24\nj_step = 0.01\n"
                       f"t_points = 5\noutput_path = {out}\n")
        for command in order:
            assert main([command, "--config", str(cfg)]) == cli.EXIT_OK, command
        assert (out / "table1.csv").is_file()
        assert (out / "surface_alpha0.7.csv").is_file()

    def test_each_command_applies_only_its_fields(self, tmp_path):
        values = {"alpha_list": [0.3], "t_points": 5, "output_format": "json", "seed": 7}
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("alpha_list = 0.3\nt_points = 5\noutput_format = json\nseed = 7\n")
        args = argparse.Namespace(config=str(cfg), **dict.fromkeys(cli.OPTIONS))
        for command, fields in cli.COMMAND_FIELDS.items():
            read = {k: v for k, v in values.items() if k in fields}
            assert build_config(args, command) == dataclasses.replace(RunConfig(), **read)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # numpy's default_rng rejects it with a ValueError traceback otherwise
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -5\n")
        for argv in (["selftest", "--seed", "-1"], ["selftest", "--config", str(cfg)]):
            assert main(argv) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert "seed must be a non-negative integer" in captured.err
            assert "[PASS]" not in captured.out


class TestSurface:
    def test_deterministic_bytes(self, tmp_path):
        # the command run twice with identical config must emit identical bytes
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        rc1 = main(["surface", *SMALL_SURFACE, "--out", str(out1)])
        rc2 = main(["surface", *SMALL_SURFACE, "--out", str(out2)])
        assert rc1 == 0 and rc2 == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 == ["surface_alpha0.3.csv", "surface_alpha0.7.csv"]
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's heap thresholds")
    def test_warm_surface_files_do_not_refault_the_heap(self, tmp_path):
        # the real-family kernel's one workspace is the largest block a file
        # frees, so glibc keeps the heap the CSV text takes instead of trimming
        # it, and each file is written in slices. The output directory's length
        # shifts the heap's layout: with one whole-file write and the sources at
        # one fixed path, lengths 38 and 57 gave medians of 270-550 faults a
        # file, and 20 and 76 gave 0
        pytest.importorskip("resource")
        for length in (20, 38, 57, 76):
            proc = subprocess.run(
                [sys.executable, "-c", SURFACE_FAULTS, "d" * length], cwd=tmp_path,
                env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            faults = [int(line) for line in proc.stdout.split()]
            assert len(faults) == 23 and statistics.median(faults[5:]) < 50, (length, faults)

    @pytest.mark.parametrize("fmt,copier_only,digests", [
        ("csv", False, {
            "surface_alpha0.3.csv": "a4f0a95defce95ef8844d9f791c5b89063233fa9c0b60bff2e7c94e456eb5bc2",
            "surface_alpha0.7.csv": "5559216c890f52e257691a81d3311c44ccfb080032075ce619a0ce5c2d986161"}),
        ("csv", True, {
            "surface_alpha0.3.csv": "12c8d9acc146a8fa5baa830b153fdcf79fd2b7b5af344ecd9620ba12a3cfd784",
            "surface_alpha0.7.csv": "d57f90e84c0781f5b2c4b491a7a1325f306bb768993254dfa6c86d5b500e56eb"}),
        ("json", False, {
            "surface_alpha0.3.json": "401fa4f8a53c6df1fd63bbb690d3484e8561a0013b16a6ce7a7b063a1dd9a765",
            "surface_alpha0.7.json": "fd094f456a00cc2d46d0743c77e3d3b730fe86af0a3ed37d972256cd21ff669c"}),
        ("json", True, {
            "surface_alpha0.3.json": "09a091b3f4424ce0f269cb14a7d4b6736c7c38a9782990182d28fbdc2d6835bc",
            "surface_alpha0.7.json": "ca5ae62ed479d485afd17e8aa16d887d3cc4fb0c0cbe4a02d14127501fc85d35"}),
    ])
    def test_pinned_bytes(self, tmp_path, fmt, copier_only, digests):
        # from j = 0.01 the grid reaches below the physical window (j < 1/6), so
        # those files carry Unphysical rows; from j = 0.17 it holds copier rows only
        out = tmp_path / "out"
        j_min = "0.17" if copier_only else "0.01"
        assert main(["surface", "--alpha", "0.3,0.7", "--j-min", j_min, "--j-max", "0.5",
                     "--j-step", "0.01", "--t-points", "13", "--format", fmt,
                     "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == digests

    @pytest.mark.parametrize("alpha,overrides", [
        (0.0, {}), (0.1, {}), (0.7, {}), (1.0, {}),
        (0.7, {"j_min": 0.17}),
        (0.7, {"t_points": 1}),
        (0.7, {"j_min": 0.3, "j_max": 0.3}),
        (0.7, {"j_min": 0.17, "j_max": 0.17}),
        (-0.7, {}),     # every line starts with "-"
    ])
    def test_writers_match_row_oracle(self, alpha, overrides):
        cfg = RunConfig(**overrides).validate()
        grid = cli.surface_records(alpha, cfg)
        assert np.array_equal(grid["j"], cfg.j_grid())
        assert grid["discord"].shape == (len(cfg.j_grid()), cfg.t_points)
        _assert_writers_match_row_oracle(grid)

    def test_writers_match_row_oracle_on_edge_values(self):
        # values whose 12-digit text is signed, subnormal, exponent-form or non-finite
        edge = [-0.0, 5e-324, 1e16, 1e-5, float("nan"), float("inf"), -float("inf")]
        assert all("%.12g" % x == format(x, ".12g") for x in edge)
        n = len(edge)
        grid = {"alpha": -0.7, "t": np.linspace(0.0, np.pi / 2, n),
                "j": np.array(edge), "w3": np.roll(edge, 1), "w4": np.roll(edge, 2),
                "min_ppt_eig": np.roll(edge, 3), "physical": np.arange(n) % 2 == 0,
                "classification": np.resize(["Separable", "Entangled", "Unphysical"], n),
                "discord": np.array([np.roll(edge, k) for k in range(n)])}
        _assert_writers_match_row_oracle(grid)

    @pytest.mark.parametrize("overrides,message", [
        ({"j_min": 0.3, "j_max": 0.2}, "empty j grid"),
        ({"t_points": 0}, "empty t grid"),
    ])
    def test_unvalidated_empty_axis_is_refused(self, overrides, message):
        # validate() refuses both; surface_records refuses them too, so no
        # writer ever sees an empty grid
        with pytest.raises(ConfigError, match=message):
            cli.surface_records(0.7, RunConfig(**overrides))

    def test_j_min_file_is_the_default_files_rows_from_that_j(self, tmp_path):
        # the default grid's j values from 0.17 on are those of a grid that
        # starts there, so a copier-only file is the default file's tail, bit for bit
        out_all, out_cut = tmp_path / "all", tmp_path / "cut"
        assert main(["surface", "--out", str(out_all)]) == 0
        assert main(["surface", "--j-min", "0.17", "--out", str(out_cut)]) == 0
        names = sorted(p.name for p in out_all.iterdir())
        assert names == sorted(p.name for p in out_cut.iterdir()) and len(names) == 9
        for name in names:
            header, *rows = (out_all / name).read_text().splitlines(True)
            kept = [row for row in rows if float(row.split(",")[1]) >= 0.17]
            assert any(",Unphysical" in row for row in rows), name
            assert len(kept) == 67 * 91, name
            same = (out_cut / name).read_text() == header + "".join(kept)
            assert same, name

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 2 ** -0.5, 0.7, -0.3, 1.5e-10, 1e-6,
                                       1 - 1e-12])
    @pytest.mark.parametrize("overrides", [{}, {"j_min": 0.0, "j_step": 0.0137, "t_points": 7},
                                           {"j_min": 0.3, "j_max": 0.3, "t_points": 1}])
    def test_records_are_discord_surface_and_ppt_data(self, alpha, overrides):
        # one formula behind both entry points: the records' fields equal the
        # public functions' results on the same grid, bit for bit
        cfg = RunConfig(**overrides).validate()
        js, ts = cfg.j_grid(), cfg.t_grid()
        grid = cli.surface_records(alpha, cfg)
        surface, physical = discord_surface(alpha, js, ts)
        w3, w4, min_ppt = ppt_data(cloner.build_output_batch(alpha, js))
        for key, want in [("discord", surface), ("physical", physical), ("w3", w3), ("w4", w4),
                          ("min_ppt_eig", min_ppt)]:
            got = grid[key]
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), key

    def test_one_state_build_and_one_spectrum_call(self, monkeypatch):
        # every module binding of build_output_batch is counted, so a second
        # build by any route shows; the one Jacobi call takes both stacks
        builds, spectra = [], []
        build = cloner.build_output_batch

        def counted(alpha, js):
            builds.append(np.size(js))
            return build(alpha, js)

        for module in (cloner, cli, discord, separability):
            monkeypatch.setattr(module, "build_output_batch", counted)
        jacobi = hermat.jacobi_eigvals
        monkeypatch.setattr(hermat, "jacobi_eigvals",
                            lambda mats: spectra.append(np.shape(mats)) or jacobi(mats))
        cfg = RunConfig().validate()
        n_j = len(cfg.j_grid())
        cli.surface_records(0.7, cfg)
        assert builds == [n_j]
        assert spectra == [(2, n_j, 4, 4)]

    def test_classification_is_classify_across_both_window_ends(self):
        # rows at, beside and just outside each end at alpha = 0.7, where a
        # floored PPT spectrum calls rows outside the window Separable
        [iv] = separability.separable_intervals(0.7)
        js = [0.17, 0.22, 0.3]
        for end in (iv.lo, iv.hi):
            j = end
            for _ in range(3):
                j = math.nextafter(j, 0.0)
            for _ in range(7):
                js.append(j)
                j = math.nextafter(j, 1.0)
            js += [end + d for d in (-1e-10, -1e-12, 1e-12, 1e-10)]
        grid_cfg = SimpleNamespace(j_grid=lambda: np.array(sorted(js)),
                                   t_grid=lambda: np.array([0.0, 0.5]))
        grid = cli.surface_records(0.7, grid_cfg)
        want = [classify(0.7, j).classification for j in grid["j"].tolist()]
        assert grid["classification"].tolist() == want
        # 0.22, and at each end the end, three floats and two offsets inside it
        assert want == ["Separable" if iv.lo <= j <= iv.hi else "Entangled" for j in sorted(js)]
        assert want.count("Separable") == 13

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5e-10, 0.6, 0.7, 2 ** -0.5, -0.8,
                                       0.5498705722617608])
    def test_classification_is_the_exact_test_on_every_physical_row(self, alpha):
        # j = 0 included, where W4 = 0: the product state at alpha in {0, 1} is Separable
        cfg = RunConfig(j_min=0.0, j_step=0.0013, t_points=2).validate()
        grid = cli.surface_records(alpha, cfg)
        kn, kd = _exact_k(alpha)
        exact = ["Separable" if _separable(kn, kd, j) else "Entangled" for j in grid["j"].tolist()]
        want = np.where(grid["physical"], exact, "Unphysical")
        assert grid["classification"].tolist() == want.tolist()
        assert grid["physical"][0] == (alpha in (0.0, 1.0))

    def test_negative_alpha_mirrors_positive(self):
        cfg = RunConfig().validate()
        neg, pos = cli.surface_records(-0.7, cfg), cli.surface_records(0.7, cfg)
        assert (neg["alpha"], pos["alpha"]) == (-0.7, 0.7)
        for key in ("j", "w3", "w4", "min_ppt_eig"):
            np.testing.assert_allclose(neg[key], pos[key], rtol=0, atol=1e-12)
        for key in ("physical", "classification"):
            np.testing.assert_array_equal(neg[key], pos[key])
        # rho(-alpha) is rho(alpha) conjugated by Z x Z; Z on b maps t to -t, i.e. pi/2 - t
        np.testing.assert_allclose(neg["discord"], pos["discord"][:, ::-1], rtol=0, atol=1e-12)

    def test_csv_schema_and_rowcount(self, tmp_path):
        out = tmp_path / "out"
        assert main(["surface", *SMALL_SURFACE, "--out", str(out)]) == 0
        lines = (out / "surface_alpha0.3.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 14 * 13     # header + j points * t points

    def test_round_trip_recompute(self, tmp_path):
        out = tmp_path / "out"
        assert main(["surface", *SMALL_SURFACE, "--out", str(out)]) == 0
        lines = (out / "surface_alpha0.7.csv").read_text().splitlines()[1:]
        for line in lines[::29]:
            cells = line.split(",")
            alpha, j, t = float(cells[0]), float(cells[1]), float(cells[2])
            rho = build_output_state(alpha, j)
            assert float(cells[3]) == pytest.approx(
                discord_at(rho, t), abs=1e-10)
            assert float(cells[4]) == pytest.approx(w3_closed(alpha, j), abs=1e-10)
            assert float(cells[5]) == pytest.approx(w4_closed(alpha, j), abs=1e-10)
            assert cells[7] == "true"
            assert cells[8] in ("Separable", "Entangled")

    def test_json_mirrors_fields(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["surface", "--alpha", "0.6", "--j-min", "0.2", "--j-max", "0.2",
                   "--t-points", "3", "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "surface_alpha0.6.json").read_text())
        assert len(payload) == 3
        assert set(payload[0]) == {"alpha", "j", "t", "discord", "w3", "w4",
                                   "min_ppt_eig", "physical", "classification"}
        assert payload[0]["physical"] is True

    def test_j_min_in_the_copier_domain_drops_unphysical_rows(self, tmp_path):
        out_all = tmp_path / "all"
        out_cut = tmp_path / "cut"
        args = ["surface", "--alpha", "0.5", "--j-max", "0.2", "--j-step", "0.01",
                "--t-points", "2"]
        assert main([*args, "--j-min", "0.1", "--out", str(out_all)]) == 0
        assert main([*args, "--j-min", "0.17", "--out", str(out_cut)]) == 0
        rows_all = (out_all / "surface_alpha0.5.csv").read_text().splitlines()[1:]
        rows_cut = (out_cut / "surface_alpha0.5.csv").read_text().splitlines()[1:]
        assert len(rows_all) == 11 * 2
        assert len(rows_cut) < len(rows_all)
        assert all(",true," in r for r in rows_cut)
        assert any(",false," in r for r in rows_all)
        assert any(",Unphysical" in r for r in rows_all)

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["surface", *SMALL_SURFACE, "--out", str(blocker / "sub")])
        assert rc == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_alphas_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        # _fmt keeps 12 significant digits, so both alphas name surface_alpha0.3.csv
        out = tmp_path / "out"
        rc = main(["surface", "--alpha", "0.3,0.3000000000001", "--j-min", "0.2",
                   "--j-max", "0.2", "--t-points", "2", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "0.3 and 0.3000000000001" in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_alpha_rewrites_its_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["surface", "--alpha", "0.3,0.3", "--j-min", "0.2", "--j-max", "0.2",
                   "--t-points", "2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.count("-> ") == 2
        assert [p.name for p in out.iterdir()] == ["surface_alpha0.3.csv"]

    def test_default_run_emits_nine_finite_tables(self, tmp_path):
        out = tmp_path / "full"
        assert main(["surface", "--out", str(out)]) == 0
        files = sorted(out.iterdir())
        assert len(files) == 9
        for path in files:
            lines = path.read_text().splitlines()
            assert len(lines) == 1 + 99 * 91
            for line in lines[1:]:
                cells = line.split(",")
                discord, physical = float(cells[3]), cells[7]
                assert np.isfinite(discord)
                if physical == "true":
                    assert discord > 0.0


class TestTable1:
    def test_reference_rows_match(self, capsys):
        rc = main(["table1", "--alpha", "0.6,0.9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Separable" in out and "Inseparable" in out
        assert "MISMATCH" not in out

    def test_non_reference_alpha_is_unscored(self, capsys):
        rc = main(["table1", "--alpha", "0.65"])
        assert rc == 0
        row = [l for l in capsys.readouterr().out.splitlines() if "0.65" in l][0]
        assert row.rstrip().endswith("-")

    def test_symmetric_pair_rows_identical(self):
        rows, mismatch = table1_rows(RunConfig(alpha_list=[0.6, 0.8]))
        assert not mismatch
        (a,), (b,) = rows[0]["intervals"], rows[1]["intervals"]
        assert a.lo == pytest.approx(b.lo, abs=2e-6)
        assert a.hi == pytest.approx(b.hi, abs=2e-6)

    def test_rows_are_one_record(self):
        # the record that the text, CSV and JSON writers all render
        rows, mismatch = table1_rows(RunConfig(alpha_list=[0.65, 0.7, 0.3]))
        keys = {"alpha", "intervals", "classification", "reference", "match"}
        assert [set(row) for row in rows] == [keys] * 3
        assert [(row["reference"], row["match"]) for row in rows] == [
            (None, None), ((0.191, 0.250), True), (None, True)]
        assert not mismatch

    def test_negative_alpha_is_scored_as_its_positive(self, capsys):
        # the window depends on alpha^2 only
        rows, mismatch = table1_rows(RunConfig(alpha_list=[-0.7, 0.7, -0.9]))
        assert [(row["reference"], row["match"]) for row in rows] == [
            ((0.191, 0.250), True), ((0.191, 0.250), True), (None, True)]
        assert rows[0]["intervals"] == rows[1]["intervals"] and not mismatch
        assert main(["table1", "--alpha=-0.7,0.7,-0.9"]) == 0
        table = capsys.readouterr().out.splitlines()[1:]
        assert len(table) == 3 and all(line.endswith(" ok") for line in table)

    def test_product_rows_are_inseparable(self, capsys):
        # alpha in {0, +-1}: g(j) = -2j^3 < 0 on [1/6, 1/2], so no copier output is
        # separable; the product state at j = 0 is no copier's
        assert main(["table1", "--alpha", "0,1,-1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[1:3] for row in rows] == [["(none)", "Inseparable"]] * 3

    def test_mismatch_exits_3(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.REFERENCE_INTERVALS, 0.6, (0.10, 0.15))
        rc = main(["table1", "--alpha", "0.6"])
        assert rc == cli.EXIT_MISMATCH
        assert "MISMATCH" in capsys.readouterr().out

    def test_file_output(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["table1", "--alpha", "0.6", "--out", str(out)])
        assert rc == 0
        lines = (out / "table1.csv").read_text().splitlines()
        assert lines[0] == "alpha,lo,hi,classification,reference_lo,reference_hi,match"
        assert lines[1].startswith("0.6,0.196")

    def test_alphas_sharing_a_row_label_exit_2(self, tmp_path, capsys):
        # _fmt keeps 12 significant digits, so both rows would print as 0.3
        out = tmp_path / "d"
        rc = main(["table1", "--alpha", "0.3,0.3000000000001", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "0.3 and 0.3000000000001" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("fmt", list(TABLE1_DIGESTS))
    def test_pinned_bytes(self, tmp_path, fmt):
        # one row without a window (0.5) and one with a window (0.7)
        out = tmp_path / "out"
        assert main(["table1", "--alpha", "0.5,0.7", "--format", fmt, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / f"table1.{fmt}").read_bytes()).hexdigest()
        assert digest == TABLE1_DIGESTS[fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", list(TABLE1_CASES))
    def test_pinned_unscored_product_and_mismatch_rows(self, tmp_path, monkeypatch, capsys,
                                                       case, fmt):
        # match null/"-" and false, and reference "(none)" beside a score, in all three forms
        argv, patched, code = TABLE1_CASES[case]
        if patched:
            monkeypatch.setitem(cli.REFERENCE_INTERVALS, 0.6, patched)
        out = tmp_path / "out"
        assert main(["table1", *argv, "--format", fmt, "--out", str(out)]) == code
        path = out / f"table1.{fmt}"
        *table, wrote = capsys.readouterr().out.splitlines(True)
        assert wrote == f"wrote {path}\n"
        digests = TABLE1_CASE_DIGESTS[case]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[fmt]
        assert hashlib.sha256("".join(table).encode()).hexdigest() == digests["table"]


class TestPoint:
    def test_separable_discordant_banner(self, capsys):
        rc = main(["point", "0.7", "0.22"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Separable" in out
        assert "DISCORDANT BUT SEPARABLE" in out

    def test_json_report(self, capsys):
        rc = main(["point", "0.7", "0.22", "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["separability"]["classification"] == "Separable"
        assert report["discord"]["discord"] > 1e-6
        assert report["discordant_but_separable"] is True
        assert report["fidelity"] == pytest.approx(0.78, abs=1e-9)

    def test_alpha_one_entangled(self, capsys):
        rc = main(["point", "1.0", "0.3", "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["separability"]["classification"] == "Entangled"
        assert report["separability"]["w4"] == pytest.approx(-0.0081, abs=1e-12)
        assert report["discordant_but_separable"] is False

    def test_bell_like_endpoint_entangled(self, capsys):
        # j = 1/2 leaves the pure symmetric Bell-like state: maximal discord,
        # entangled under PPT
        rc = main(["point", "0.5", "0.5", "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["separability"]["classification"] == "Entangled"
        assert report["discord"]["discord"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha,j", [(0.7, 0.22), (1.0, 0.3), (0.5, 0.5), (0.9, 0.19),
                                         (0.3, 1 / 6 + 1e-9), (0.7, 1 / 6)])
    def test_separability_is_the_classify_verdict(self, alpha, j):
        report = cli.point_report(alpha, j)
        assert report["separability"] == dataclasses.asdict(classify(alpha, j))

    def test_window_end_and_the_float_past_it(self, capsys):
        # the full-precision end, not table1's 12 digits (0.249949969966 lies past it)
        [iv] = separability.separable_intervals(0.7)
        for j, want in ((iv.hi, "Separable"), (math.nextafter(iv.hi, 1.0), "Entangled")):
            assert main(["point", "0.7", repr(j)]) == 0
            assert f"  separability:        {want} (" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha,j", list(POINT_JSON_DIGESTS))
    def test_pinned_json_bytes(self, capsys, alpha, j):
        # plain queries only: a phase query's last digits move with any
        # rounding-level change to the kernel (see CHANGES.md)
        assert main(["point", alpha, j, "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == POINT_JSON_DIGESTS[alpha, j]

    @pytest.mark.parametrize("alpha,j", [("0", "0.1"), ("1e-5", "0.1"), ("0", "0.166666666666"),
                                         ("0.7", "-0.0")])
    def test_text_says_when_no_copier_has_this_j(self, capsys, alpha, j):
        # a PSD matrix below j = 1/6, which no machine produces: exit 2 in both
        # formats, and the message names the copier domain; 0.166666666666 is
        # 6.7e-13 below 1/6, and -0.0 passes build_output_state's [0, 1/2] test
        for fmt in ("text", "json"):
            assert main(["point", alpha, j, "--format", fmt]) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "j in [1/6, 1/2]" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv,digest", [
        pytest.param([], "c925c1df4ca879190bd6a8af27551c4792f1fb536c39ba5f4f7c734c83bcddce",
                     id="plain"),
        # a phase query's last digits move with the phase kernel; re-pin with it
        pytest.param(["--scan-phase"],
                     "fc44b5a5ebb3f4d910a12e8668837464ee73bc091c6b8dd7c58cd6c3e5d62833",
                     id="scan-phase"),
    ])
    def test_pinned_text_bytes(self, capsys, argv, digest):
        # a copier point prints no copier line
        assert main(["point", "0.7", "0.22", *argv]) == 0
        out = capsys.readouterr().out
        assert "copier:" not in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("scan_phase", [False, True])
    def test_state_spectrum_is_taken_once(self, monkeypatch, scan_phase):
        # one LAPACK spectrum of rho (reused by discord_min) and one of its
        # partial transpose; the library built both, so neither is checked again
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        report = cli.point_report(0.7, 0.22, scan_phase=scan_phase)
        rho = build_output_state(0.7, 0.22)
        assert len(calls) == 2
        assert np.array_equal(calls[0], rho)
        assert np.array_equal(calls[1], hermat.partial_transpose_b(rho))
        assert report["discord"]["entropy_joint"] == vn_entropy(eig_sym4(rho))

    def test_report_after_a_phase_query_is_a_fresh_process_report(self):
        # the kets and phase coefficients that a phase query at one point leaves
        # cached do not move a byte of the next query, at another point
        cli.point_report(0.3, 0.4, scan_phase=True)
        got = cli._json_text(cli.point_report(0.7, 0.22))
        proc = subprocess.run(
            [sys.executable, "-m", "clonecorr", "point", "0.7", "0.22", "--format", "json"],
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert got == proc.stdout

    def test_json_keys_are_what_a_copier_point_can_vary(self, capsys):
        # every admitted point is PSD and meets the machine constraints, so the
        # report carries no constant flag
        assert main(["point", "0.7", "0.22", "--format", "json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {
            "alpha", "j", "valid_j_range", "fidelity", "discord", "separability",
            "discordant_but_separable"}

    @pytest.mark.parametrize("argv", [[], ["--scan-phase"]])
    def test_text_names_the_psd_window(self, capsys, argv):
        assert main(["point", "0.7", "0.22", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        lo, hi = valid_j_range(0.7)
        assert f"  PSD window of j:     [{lo:.6f}, {hi:.6f}]" in lines
        assert not any("physical" in line for line in lines)

    @pytest.mark.parametrize("scan_phase", [False, True])
    def test_each_quantity_is_computed_once(self, monkeypatch, scan_phase):
        # one state, the two 4x4 spectra of test_state_spectrum_is_taken_once
        # and no check of them (the library built both states), no 2x2
        # spectrum (the clones' entropies come from rho's Bloch matrix) and
        # one reduced state, clone a's, for the fidelity
        seen = {}
        for module, name in ((cloner, "build_output_batch"), (hermat, "eig_herm2"),
                             (np.linalg, "eigvalsh"), (hermat, "eig_sym4"),
                             (hermat, "validate_state"), (hermat, "partial_trace")):
            def spy(*args, f=getattr(module, name), calls=seen.setdefault(name, [])):
                calls.append(args)
                return f(*args)
            monkeypatch.setattr(module, name, spy)
        cli.point_report(0.7, 0.22, scan_phase=scan_phase)
        assert {name: len(calls) for name, calls in seen.items()} == {
            "build_output_batch": 1, "eig_herm2": 0, "eigvalsh": 2, "eig_sym4": 0,
            "validate_state": 0, "partial_trace": 1}
        [(rho, keep)] = seen["partial_trace"]
        assert keep == "a" and np.array_equal(rho, build_output_state(0.7, 0.22))

    @pytest.mark.parametrize("scan_phase", [False, True])
    def test_report_is_the_public_functions_bit_for_bit(self, scan_phase):
        for alpha, j in REPORT_POINTS:
            rho = build_output_state(alpha, j)
            discord = dataclasses.asdict(discord_min(rho, scan_phase=scan_phase))
            verdict = dataclasses.asdict(classify(alpha, j))
            assert cli.point_report(alpha, j, scan_phase=scan_phase) == {
                "alpha": alpha,
                "j": j,
                "valid_j_range": list(valid_j_range(alpha)),
                "fidelity": clone_fidelity(alpha, j),
                "discord": discord,
                "separability": verdict,
                "discordant_but_separable": (verdict["classification"] == "Separable"
                                             and discord["discord"] > 1e-6),
            }, (alpha, j)

    def test_unphysical_point_exits_2_with_range(self, capsys):
        # j = 0.1 < 1/6: the refusal names the copier's j range, not the PSD window
        rc = main(["point", "0.5", "0.1"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "machine vectors exist only for j in [1/6, 1/2]" in err
        assert "physical j range" not in err

    def test_unphysical_point_is_refused_as_classify_refuses_it(self):
        with pytest.raises(DomainError, match=r"\[1/6, 1/2\]") as by_report:
            cli.point_report(0.5, 0.1)
        with pytest.raises(DomainError) as by_classify:
            classify(0.5, 0.1)
        assert str(by_classify.value) == str(by_report.value)
        assert not hasattr(by_classify.value, "min_eigenvalue")


class TestSelftest:
    def test_failing_property_group_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "w3_closed", lambda alpha, j: math.nan)
        assert main(["selftest", "--seed", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("[FAIL] closed-form determinants match direct minors") == 1
        assert sum(line.startswith("[PASS] ") for line in lines) == 4
        assert lines[-1] == "FAILED: 4 of 5 property groups passed"

    def test_selftest_passes(self, capsys):
        rc = main(["selftest", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
