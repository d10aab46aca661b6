"""Command-line surface: parameter sweeps, the separability reference table,
single-point reports, and a self-test property suite.

Output files are plot-ready CSV or JSON with floats at 12 significant
digits and deterministic row order, so identical configurations produce
byte-identical files. A surface is one grid record per alpha (per-j arrays
and a (j, t) discord matrix, see surface_records); the writers expand it to
rows in (j, t) order. Both writers format each distinct value once; CSV
fills one % template per file once per j row, JSON one template per j row.

Exit codes: 0 success, 2 configuration error, 3 reference-table mismatch,
4 I/O error (1 for self-test failures).
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import hermat
from .cloner import (_copier_state, _fidelity, build_output_batch, build_output_state,
                     clone_fidelity, valid_j_range)
from .discord import (_discord_min, _surface, conditional_entropy_curve, discord_at,
                      discord_min, mutual_info_i, mutual_info_j)
from .errors import DomainError
from .separability import (_ppt_triple, _ppt_verdict, scan_grid, separable_intervals, w3_closed,
                           w4_closed)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_IO = 4

CSV_HEADER = "alpha,j,t,discord,w3,w4,min_ppt_eig,physical,classification"
# the per-j entries of a surface grid, in file order, then its rows of discord over t
GRID_KEYS = ("j", "w3", "w4", "min_ppt_eig", "physical", "classification", "discord")

# Separability windows the table1 command checks against, per input alpha;
# None marks rows with no separable machine parameter at all.
REFERENCE_INTERVALS = {
    0.1: None, 0.2: None, 0.3: None, 0.4: None, 0.5: None,
    0.6: (0.196, 0.238),
    0.7: (0.191, 0.250),
    0.8: (0.196, 0.238),
    0.9: None,
}
REFERENCE_TOL = 0.002

# Characters per write of a surface file. Text mode encodes each write on its
# own, so no encoded copy of a whole file (0.9 MB at the defaults) is made,
# and the buffers a file takes do not depend on how glibc placed the heap.
WRITE_SLICE = 1 << 16

# Largest (j, t) grid, in rows per alpha, that a run may request; validate()
# checks it from the grid arithmetic before anything is allocated.
MAX_GRID_ROWS = 10**7

DISCORD_BANNER = (
    "*** DISCORDANT BUT SEPARABLE: nonclassical correlation without entanglement ***")


class ConfigError(ValueError):
    """Bad run configuration (flags, config file, or grids)."""


@dataclass
class RunConfig:
    alpha_list: list = field(default_factory=lambda: [round(0.1 * k, 1) for k in range(1, 10)])
    j_min: float = 0.01
    j_max: float = 0.50
    j_step: float = 0.005
    t_points: int = 91
    output_format: str = "csv"
    output_path: str | None = None
    seed: int = 0

    def validate(self):
        if not self.alpha_list:
            raise ConfigError("alpha_list is empty")
        labels = {}   # 12-digit label (surface file name, table1 row) -> first alpha with it
        for a in self.alpha_list:
            if not -1.0 <= a <= 1.0:
                raise ConfigError(f"alpha {a} outside [-1, 1]")
            first = labels.setdefault(_fmt(a), a)
            if first != a:
                raise ConfigError(f"alphas {first!r} and {a!r} share the label {_fmt(a)} "
                                  "(surface file name and table1 row)")
        if not all(math.isfinite(x) for x in (self.j_min, self.j_max, self.j_step)):
            raise ConfigError(f"j grid bounds and step must be finite, got "
                              f"[{self.j_min}, {self.j_max}] step {self.j_step}")
        if not (0.0 <= self.j_min <= self.j_max <= 0.5):
            raise ConfigError(
                f"need 0 <= j_min <= j_max <= 0.5, got [{self.j_min}, {self.j_max}]")
        if self.j_step <= 0:
            raise ConfigError(f"j_step must be positive, got {self.j_step}")
        if self.t_points < 1:
            raise ConfigError(f"t_points must be >= 1, got {self.t_points}")
        # the np.arange length behind j_grid() is ceil(n_j)
        n_j = (self.j_max + self.j_step / 2 - self.j_min) / self.j_step
        if n_j > MAX_GRID_ROWS or math.ceil(n_j) * self.t_points > MAX_GRID_ROWS:
            raise ConfigError(f"(j, t) grid of about {n_j * self.t_points:.3g} rows exceeds "
                              f"{MAX_GRID_ROWS} rows per alpha")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {self.output_format!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        return self

    def j_grid(self):
        js = np.round(np.arange(self.j_min, self.j_max + self.j_step / 2, self.j_step), 12)
        return js[(js >= 0.0) & (js <= 0.5)]

    def t_grid(self):
        return np.linspace(0.0, np.pi / 2, self.t_points)


def _alpha_list(text):
    return [float(x) for x in text.replace(",", " ").split()]


# Each RunConfig field, which is also its flag's dest and its config-file key:
# the flag and its argparse keywords (a metavar names the value after the flag
# where the field name differs). A config-file value goes through the flag's
# type, or stays a string where the flag has none.
OPTIONS = {
    "alpha_list": ("--alpha", {"type": _alpha_list, "metavar": "ALPHA",
                               "help": "comma-separated input amplitudes (default 0.1..0.9)"}),
    "j_min": ("--j-min", {"type": float}),
    "j_max": ("--j-max", {"type": float}),
    "j_step": ("--j-step", {"type": float}),
    "t_points": ("--t-points", {"type": int}),
    "output_format": ("--format", {"choices": ("csv", "json")}),
    "output_path": ("--out", {"metavar": "OUT", "help": "output directory, created if missing"}),
    "seed": ("--seed", {"type": int}),
}

# The fields each config-driven command reads: its flags and the file keys it applies.
COMMAND_FIELDS = {
    "surface": ("alpha_list", "j_min", "j_max", "j_step", "t_points", "output_format",
                "output_path"),
    "table1": ("alpha_list", "output_format", "output_path"),
    "selftest": ("seed",),
}


def load_config_file(path):
    """Flat key=value config; '#' starts a comment, keys are RunConfig fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = OPTIONS[key][1].get("type", str)(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def build_config(args, command):
    """The RunConfig of one command: each field it reads from its flag if given,
    else from the config file, else the default. The file's other keys are
    parsed but not applied, so one file serves all three commands."""
    from_file = load_config_file(args.config) if args.config else {}
    cfg = RunConfig()
    for name in COMMAND_FIELDS[command]:
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
        elif name in from_file:
            setattr(cfg, name, from_file[name])
    return cfg.validate()


def _fmt(x):
    """12 significant digits; empty string for missing values."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(x, ".12g")


def _jnum(x):
    return None if x is None else float(format(x, ".12g"))


# repr's text of the non-finite floats -> json.dumps's
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x):
    """JSON text of _jnum(x), as json.dumps writes a float: its repr, or NaN/Infinity."""
    text = repr(_jnum(x))
    return _JSON_NONFINITE.get(text, text)


def _json_text(payload):
    """Indented, key-sorted JSON text of payload with every float through _jnum."""
    def walk(x):
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        if isinstance(x, float):
            return _jnum(x)
        return x
    return json.dumps(walk(payload), indent=2, sort_keys=True) + "\n"


def records_to_csv(grid):
    """CSV text of a surface_records grid, one line per (j, t) pair.

    alpha and each t are formatted once per file, at 12 significant digits, into
    one template of "t,%.12g" cells joined by "|". Each j row fills it with its
    discord values in one call and replaces each "|" by its per-j tail and head:
    no %.12g field holds a "|", and the per-j texts are never %-scanned.
    """
    alpha = format(grid["alpha"], ".12g")
    template = "|".join([f"{t:.12g},%.12g" for t in grid["t"].tolist()])
    parts = [CSV_HEADER + "\n"]
    for j, w3, w4, ppt, phys, cls, row in zip(*(grid[k].tolist() for k in GRID_KEYS)):
        head = f"{alpha},{j:.12g},"
        tail = f",{w3:.12g},{w4:.12g},{ppt:.12g},{'true' if phys else 'false'},{cls}\n"
        parts.append(head + (template % tuple(row)).replace("|", tail + head) + tail)
    return "".join(parts)


def records_to_json(grid):
    """JSON text of a surface_records grid: a list of one object per (j, t) pair.

    The text is that of json.dumps(rows, indent=2, sort_keys=True) with every
    float through _jnum, written directly. Each distinct value is formatted
    once, and each j row is one %-template, its objects in key order around
    a "%s" discord per t, filled with that row's discord texts in one call.
    """
    alpha = _json_float(grid["alpha"])
    ts = [_json_float(t) for t in grid["t"].tolist()]
    objects = []
    for j, w3, w4, ppt, phys, cls, row in zip(*(grid[k].tolist() for k in GRID_KEYS)):
        # the per-j texts are JSON numbers, true/false and fixed labels: never a %
        head = (f'  {{\n    "alpha": {alpha},\n    "classification": {json.dumps(cls)},\n'
                f'    "discord": ')
        mid = (f',\n    "j": {_json_float(j)},\n    "min_ppt_eig": {_json_float(ppt)},\n'
               f'    "physical": {json.dumps(phys)},\n    "t": ')
        tail = f',\n    "w3": {_json_float(w3)},\n    "w4": {_json_float(w4)}\n  }}'
        template = ",\n".join([f"{head}%s{mid}{t}{tail}" for t in ts])
        objects.append(template % tuple([_json_float(d) for d in row]))
    return "[\n" + ",\n".join(objects) + "\n]\n"


def surface_records(alpha, cfg):
    """The discord surface of one alpha over the configured (j, t) grid.

    Returns a grid record: "alpha" (float), "t" (T,), the per-j arrays
    "j", "w3", "w4", "min_ppt_eig", "physical" and "classification" (J,),
    and "discord" (J, T). Row (j, t) of the output files is
    (alpha, j, t, discord[j, t], then the per-j fields): a file holds the
    whole grid, and neither axis may be empty.

    The states are built once, and they and their partial transposes take
    one jacobi_eigvals call; _surface and _ppt_triple then give
    discord_surface's and ppt_data's bits.
    """
    j_grid, t_grid = cfg.j_grid(), cfg.t_grid()
    if j_grid.size == 0:
        raise ConfigError("empty j grid")
    if t_grid.size == 0:
        raise ConfigError("empty t grid")
    rhos = build_output_batch(alpha, j_grid)
    sigmas = hermat.partial_transpose_b(rhos)
    spectra, ppt_spectra = hermat.jacobi_eigvals(np.stack([rhos, sigmas]))
    discord, physical = _surface(rhos, spectra, t_grid)
    w3, w4, min_ppt = _ppt_triple(sigmas, ppt_spectra)
    classification = np.where(
        physical, np.where(min_ppt >= hermat.STATE_EIG_FLOOR, "Separable", "Entangled"),
        "Unphysical")
    per_j = (j_grid, w3, w4, min_ppt, physical, classification, discord)
    return {"alpha": float(alpha), "t": t_grid, **dict(zip(GRID_KEYS, per_j))}


def run_surface(cfg, out_stream=None):
    out_dir = cfg.output_path or "surface_out"
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for alpha in cfg.alpha_list:
        grid = surface_records(alpha, cfg)
        text = records_to_csv(grid) if cfg.output_format == "csv" else records_to_json(grid)
        path = os.path.join(out_dir, f"surface_alpha{_fmt(alpha)}.{cfg.output_format}")
        with open(path, "w") as fh:
            fh.writelines(text[i:i + WRITE_SLICE] for i in range(0, len(text), WRITE_SLICE))
        n_rows = grid["discord"].size
        written.append((alpha, path, n_rows))
        print(f"alpha={_fmt(alpha)}: wrote {n_rows} rows -> {path}", file=out_stream)
    return written


def table1_rows(cfg):
    """Computed separable intervals per alpha with reference comparison.

    Returns (rows, any_mismatch); each row is a dict with keys alpha,
    intervals, classification, expected, match (match is None for alphas
    outside the reference table).
    """
    rows = []
    any_mismatch = False
    for alpha in cfg.alpha_list:
        intervals = separable_intervals(alpha)
        key = next((k for k in REFERENCE_INTERVALS if abs(alpha - k) < 1e-9), None)
        expected = REFERENCE_INTERVALS.get(key)
        match = None
        if key is not None:
            if expected is None:
                match = len(intervals) == 0
            else:
                match = (len(intervals) == 1
                         and abs(intervals[0].lo - expected[0]) <= REFERENCE_TOL + 1e-12
                         and abs(intervals[0].hi - expected[1]) <= REFERENCE_TOL + 1e-12)
            if not match:
                any_mismatch = True
        rows.append({
            "alpha": alpha,
            "intervals": intervals,
            "classification": "Separable" if intervals else "Inseparable",
            "expected": expected,
            "match": match,
        })
    return rows, any_mismatch


def run_table1(cfg, out_stream=None):
    rows, any_mismatch = table1_rows(cfg)
    print(f"{'alpha':>6}  {'separable j':<22} {'verdict':<12} {'reference':<18} match",
          file=out_stream)
    for row in rows:
        ivs = ", ".join(f"[{iv.lo:.3f}, {iv.hi:.3f}]" for iv in row["intervals"]) or "(none)"
        if row["match"] is None:
            ref, mark = "-", "-"
        elif row["expected"] is None:
            ref, mark = "(none)", "ok" if row["match"] else "MISMATCH"
        else:
            ref = f"[{row['expected'][0]:.3f}, {row['expected'][1]:.3f}]"
            mark = "ok" if row["match"] else "MISMATCH"
        print(f"{_fmt(row['alpha']):>6}  {ivs:<22} {row['classification']:<12} {ref:<18} {mark}",
              file=out_stream)

    if cfg.output_path:
        if cfg.output_format == "json":
            text = _json_text([{
                "alpha": row["alpha"],
                "intervals": [[iv.lo, iv.hi] for iv in row["intervals"]],
                "classification": row["classification"],
                "reference": (list(row["expected"]) if row["expected"] else None),
                "match": row["match"],
            } for row in rows])
        else:
            lines = ["alpha,lo,hi,classification,reference_lo,reference_hi,match"]
            for row in rows:
                ref_lo, ref_hi = row["expected"] or (None, None)
                for iv in row["intervals"] or [None]:
                    lines.append(",".join([
                        _fmt(row["alpha"]), _fmt(iv and iv.lo), _fmt(iv and iv.hi),
                        row["classification"], _fmt(ref_lo), _fmt(ref_hi),
                        _fmt(row["match"]) if row["match"] is not None else "-",
                    ]))
            text = "\n".join(lines) + "\n"
        os.makedirs(cfg.output_path, exist_ok=True)
        path = os.path.join(cfg.output_path, f"table1.{cfg.output_format}")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}", file=out_stream)

    return EXIT_MISMATCH if any_mismatch else EXIT_OK


def point_report(alpha, j, scan_phase=False):
    """All single-point quantities as a plain dict (JSON-ready)."""
    # classify's copier-domain test; a copier state is a real symmetric
    # unit-trace PSD state, so it also admits rho for discord_min unchecked
    # (eig_sym4's spectrum without its checks), and only classify's PPT half remains
    rho = _copier_state(alpha, j)
    result = _discord_min(rho, np.linalg.eigvalsh(rho)[::-1], scan_phase=scan_phase)
    verdict = _ppt_verdict(rho)
    return {
        "alpha": alpha,
        "j": j,
        "valid_j_range": list(valid_j_range(alpha)),
        "fidelity": _fidelity(alpha, hermat.partial_trace(rho, "a")),
        "discord": dict(vars(result)),
        "separability": dict(vars(verdict)),
        "discordant_but_separable": (
            verdict.classification == "Separable" and result.discord > 1e-6),
    }


def run_point(alpha, j, output_format="text", scan_phase=False, out_stream=None):
    report = point_report(alpha, j, scan_phase=scan_phase)
    if output_format == "json":
        print(_json_text(report), end="", file=out_stream)
        return EXIT_OK

    d = report["discord"]
    s = report["separability"]
    print(f"point alpha={_fmt(alpha)} j={_fmt(j)}", file=out_stream)
    lo, hi = report["valid_j_range"]
    print(f"  PSD window of j:     [{lo:.6f}, {hi:.6f}]", file=out_stream)
    print(f"  clone fidelity:      {report['fidelity']:.12g}", file=out_stream)
    print(f"  discord (min):       {d['discord']:.12g} bits at t={d['optimal_t']:.9f}"
          + (f", phi={d['optimal_phi']:.9f}" if scan_phase else ""), file=out_stream)
    print(f"  entropies (bits):    H(a)={d['entropy_a']:.9f} H(b)={d['entropy_b']:.9f} "
          f"H(ab)={d['entropy_joint']:.9f} H(a|b)={d['conditional_entropy']:.9f}",
          file=out_stream)
    print(f"  mutual information:  J={d['mutual_info_j']:.9f} I={d['mutual_info_i']:.9f}",
          file=out_stream)
    print(f"  separability:        {s['classification']} "
          f"(W3={s['w3']:.6g}, W4={s['w4']:.6g}, min PPT eig={s['min_ppt_eigenvalue']:.6g}, "
          f"tests agree: {s['agreement']})", file=out_stream)
    if report["discordant_but_separable"]:
        print(f"  {DISCORD_BANNER}", file=out_stream)
    return EXIT_OK


def run_selftest(cfg, out_stream=None):
    """Property suite over randomized inputs; one PASS/FAIL line per property."""
    rng = np.random.default_rng(cfg.seed)
    failures = 0

    def check(name, ok):
        nonlocal failures
        if ok:
            print(f"[PASS] {name}", file=out_stream)
        else:
            failures += 1
            print(f"[FAIL] {name}", file=out_stream)

    ok = True
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    swap = [0, 2, 1, 3]   # relabels the qubits: |01> <-> |10>
    for _ in range(100):
        alpha, j = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        rho = build_output_state(alpha, j)
        ok &= abs(np.trace(rho) - 1.0) <= 1e-15
        ok &= np.abs(rho @ singlet).max() <= 1e-14
        ok &= np.array_equal(rho[np.ix_(swap, swap)], rho)
        ok &= abs(clone_fidelity(alpha, j) - (1.0 - j)) <= 1e-12
    check("output-state structure (trace, singlet zero mode, swap, fidelity law)", bool(ok))

    ok = True
    for _ in range(100):
        alpha = rng.uniform(0.0, 1.0)
        j = rng.uniform(1.0 / 6.0, 0.5)
        rho = build_output_state(alpha, j)
        t = rng.uniform(0.0, np.pi)
        phi = rng.uniform(0.0, np.pi)
        lhs = discord_at(rho, t, phi)
        rhs = mutual_info_j(rho) - mutual_info_i(rho, t, phi)
        ok &= abs(lhs - rhs) <= 1e-12
        curve = conditional_entropy_curve(rho, [t, t + np.pi / 2], phi)
        ok &= abs(curve[0] - curve[1]) <= 1e-12
    check("discord identity D = J - I and conditional-entropy period pi/2", bool(ok))

    ok = True
    for _ in range(20):
        blochs = rng.uniform(-1, 1, size=(2, 2))
        blochs /= np.maximum(1.0, np.linalg.norm(blochs, axis=1))[:, None]
        singles = [np.array([[1 + b[1], b[0]], [b[0], 1 - b[1]]]) / 2 for b in blochs]
        rho = np.kron(singles[0], singles[1])
        ok &= abs(discord_min(rho).discord) <= 1e-9
    check("product states carry zero discord", bool(ok))

    ok = True
    for _ in range(500):
        alpha, j = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        sigma = hermat.partial_transpose_b(build_output_state(alpha, j)).tolist()
        ok &= abs(w3_closed(alpha, j) - hermat._det3(sigma)) <= 1e-12
        ok &= abs(w4_closed(alpha, j) - hermat._det4(sigma)) <= 1e-12
    check("closed-form determinants match direct minors", bool(ok))

    ok = True
    for alpha in np.arange(0.15, 0.96, 0.1):
        js, w3s, w4s, min_ppt = scan_grid(alpha, scan_step=2e-3)
        det_sep = (w3s >= 0.0) & (w4s >= 0.0)
        ppt_sep = min_ppt >= hermat.STATE_EIG_FLOOR
        ok &= bool(np.array_equal(det_sep, ppt_sep))
    check("determinant and PPT classifications agree on the scan grid", bool(ok))

    print(f"{'FAILED' if failures else 'OK'}: "
          f"{5 - failures} of 5 property groups passed", file=out_stream)
    return 1 if failures else EXIT_OK


def _add_command(sub, command, summary):
    """A config-driven subcommand with --config and the flags of COMMAND_FIELDS."""
    p = sub.add_parser(command, help=summary)
    p.add_argument("--config", help="flat key=value config file; flags override it")
    for name in COMMAND_FIELDS[command]:
        flag, kwargs = OPTIONS[name]
        p.add_argument(flag, dest=name, **kwargs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="clonecorr",
        description="Discord and separability of Buzek-Hillery copier output states.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "surface", "discord surface over (j, t) per alpha")
    _add_command(sub, "table1", "separable j intervals vs the reference table")

    p_point = sub.add_parser("point", help="full report for a single (alpha, j)")
    p_point.add_argument("alpha", type=float)
    p_point.add_argument("j", type=float)
    p_point.add_argument("--format", choices=("text", "json"), default="text")
    p_point.add_argument("--scan-phase", action="store_true", default=False,
                         dest="scan_phase")

    _add_command(sub, "selftest", "run the randomized property suites")

    args = parser.parse_args(argv)

    try:
        if args.command == "point":
            return run_point(args.alpha, args.j, output_format=args.format,
                             scan_phase=args.scan_phase)
        cfg = build_config(args, args.command)
        if args.command == "surface":
            run_surface(cfg)
            return EXIT_OK
        if args.command == "table1":
            return run_table1(cfg)
        return run_selftest(cfg)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
