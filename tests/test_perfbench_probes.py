"""The traced benchmark run rebinds program attributes by name; a rename
of any of them must fail this suite, not only the benchmark self-test."""

import importlib.util
from pathlib import Path

import numpy as np

from facespectra import spectral
from facespectra.synth import rectangular_grid


def test_every_probe_target_exists():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.probe_targets()
    assert len(targets) == len(tracing.PROBES)
    assert all(callable(original) for _, _, original in targets)


def test_shape_dna_reaches_each_spectral_probe_once(monkeypatch):
    """``shape_dna`` looks its stages up as ``spectral`` globals, so the
    traced run's per-layer Shape-DNA metrics stay non-zero."""
    stages = ("cotan_stiffness", "voronoi_mass", "symmetrize", "connected_components")
    calls = {}
    for name in stages:
        def counted(*args, _name=name, _original=getattr(spectral, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(spectral, name, counted)
    xy, faces = rectangular_grid(5, 5, x_extent=4.0, y_extent=4.0)
    spectral.shape_dna(np.column_stack([xy, 0.1 * xy[:, 0] ** 2]), faces, 5)
    assert calls == dict.fromkeys(stages, 1)
