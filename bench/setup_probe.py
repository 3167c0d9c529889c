"""Time the package's set-up in a fresh interpreter; prints one JSON line.

Set-up is what every run pays before its first timed call: importing
nlsatgen, loading the default vocabularies of the three fragments and
loading the calibration table.  Nothing is imported before the clock
starts, so the standard-library modules the package needs count too.
Host speed is measured by reference bursts right after, as in
``steady.py``, and the steady figure is the raw one scaled by it.
"""

import sys
import time

start = time.perf_counter()
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
import nlsatgen  # noqa: E402

nlsatgen.default_food_lexicon()
nlsatgen.default_occupation_lexicon()
nlsatgen.RetrofitVocab(nlsatgen.default_attributes(), nlsatgen.default_entities())
nlsatgen.CalibrationTable.load(HERE / "data" / "calibration.txt")
raw = time.perf_counter() - start

import json  # noqa: E402
import statistics  # noqa: E402

import steady  # noqa: E402

bursts = []
for _ in range(5):
    t = time.perf_counter()
    steady.reference_burst()
    bursts.append(time.perf_counter() - t)
factor = steady.NOMINAL_BURST_S / statistics.median(bursts)
print(json.dumps({"raw": raw, "steady": raw * factor}))
