"""The traced benchmark run rebinds program attributes by name; a rename
of any of them must fail this suite, not only the benchmark self-test."""

import importlib.util
from pathlib import Path


def test_every_probe_target_exists():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.probe_targets()
    assert len(targets) == len(tracing.PROBES)
    assert all(callable(original) for _, _, original in targets)
