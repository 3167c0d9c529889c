"""The benchmark tracer's layer table names functions the package still has."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # the tracer looks each layer up with getattr, so a deleted or renamed
    # name would otherwise fail only the traced benchmark run
    tracing = load_tracing()
    missing = [
        tracing.layer_name(module, attr)
        for module, attr in tracing.LAYERS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
    assert callable(tracing.sampler.CalibrationTable.load)
