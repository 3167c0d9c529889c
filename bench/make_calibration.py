"""Rebuild the calibration table that the generate workloads load.

The table holds the critical bands for n = 6, 8, 10 and 12 at
p_int=1.0, p_neg=0.5, made by ``calibrate_critical`` with 500 trials
per point and seed 0 (the settings of the acceptance fixture).  The
benchmark loads the checked-in copy, so generation timings neither pay
for calibration nor move when calibration itself changes.

Run from the repository root, then compare with ``git diff``:

    python3 bench/make_calibration.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nlsatgen import CalibrationTable, calibrate_critical  # noqa: E402

TABLE_PATH = HERE / "data" / "calibration.txt"
SIZES = (6, 8, 10, 12)
P_INT, P_NEG = 1.0, 0.5
TRIALS_PER_POINT = 500
SEED = 0


def build_table() -> CalibrationTable:
    table = CalibrationTable()
    for n in SIZES:
        start = time.perf_counter()
        result = calibrate_critical(
            n, P_INT, P_NEG, trials_per_point=TRIALS_PER_POINT, seed=SEED
        )
        for alpha, p_hat, trials in result.points:
            table.add_point(n, P_INT, P_NEG, alpha, p_hat, trials)
        table.set_band(n, P_INT, P_NEG, *result.band)
        lo, hi = result.band
        print(f"n={n}: band [{lo}, {hi}] in {time.perf_counter() - start:.1f} s")
    return table


def main() -> None:
    build_table().save(TABLE_PATH)
    print(f"wrote {TABLE_PATH}")


if __name__ == "__main__":
    main()
