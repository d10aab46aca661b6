"""Regenerate bench/pinned.json from the library in src/.

Pins the sha256 of every default-grid surface file, the windows of the
table1 alphas and of the seeded alphas of PIN_SEED, and the point reports
of PIN_SEED. Run it only at a commit whose outputs are known to be right,
because every later run is compared against what it writes:

    python3 bench/pin.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

PIN_SEED = 0


def main():
    pinned = {"sweep": {}, "windows": {"seed": PIN_SEED, "table1": {}, "seeded": {}},
              "points": {"seed": PIN_SEED, "ops": []}}
    outputs = []   # (workload name, op, settled output)
    with tempfile.TemporaryDirectory() as tmp:
        sweep = workloads.Sweep(PIN_SEED, tmp, pinned)
        for alpha in workloads.TABLE1_ALPHAS:
            text = sweep.settle(alpha, sweep.run(alpha))
            pinned["sweep"][repr(alpha)] = hashlib.sha256(text.encode()).hexdigest()
            outputs.append(("sweep", alpha, text))

    windows = workloads.Windows(PIN_SEED, pinned=pinned)
    for alpha in windows.ops:
        value = windows.settle(alpha, windows.run(alpha))
        group = "table1" if alpha in workloads.TABLE1_ALPHAS else "seeded"
        pinned["windows"][group][repr(alpha)] = value
        outputs.append(("windows", alpha, value))

    points = workloads.Points(PIN_SEED, pinned=pinned)
    for op in points.ops:
        report = points.settle(op, points.run(op))
        pinned["points"]["ops"].append({
            "op": list(op), "discord": report["discord"]["discord"],
            "classification": report["separability"]["classification"],
            "valid_j_range": report["valid_j_range"]})
        outputs.append(("points", op, report))

    # the pins must pass every other check before they are written
    checkers = {"sweep": workloads.Sweep(PIN_SEED, None, pinned),
                "windows": workloads.Windows(PIN_SEED, pinned=pinned),
                "points": workloads.Points(PIN_SEED, pinned=pinned)}
    problems = [p for name, op, value in outputs for p in checkers[name].check(op, value)]
    if problems:
        sys.exit("refusing to pin outputs that fail their checks:\n" + "\n".join(problems))
    workloads.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.PINNED_PATH}")


if __name__ == "__main__":
    main()
