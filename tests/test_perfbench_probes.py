"""The traced benchmark run rebinds program attributes by name; a rename
of any of them must fail this suite, not only the benchmark self-test."""

import importlib.util
from pathlib import Path

import numpy as np

from facespectra import classify, experiments, patches, spectral
from facespectra.mesh import LandmarkSet, Neighbourhood
from facespectra.synth import SynthConfig, generate_scan, rectangular_grid


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


def test_level_curves_reach_apex_normal_once_per_cropped_landmark(monkeypatch):
    """``_level_curves`` looks ``apex_normal`` up as a ``patches`` global,
    once for each landmark with faces near it, so the traced run's
    ``patches.apex_normal`` metric stays non-zero and counts landmarks."""
    calls = []

    def counted(vertices, faces, fv, _original=patches.apex_normal):
        calls.append(faces.shape[0])
        return _original(vertices, faces, fv)

    monkeypatch.setattr(patches, "apex_normal", counted)
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, resolution=48, seed=3), 0, "SU", 2)
    positions = lmk.positions[:6].copy()
    positions[[1, 4], 2] += 1000.0                   # two landmarks with no face near
    cfg = patches.PatchConfig(2.0, 6.0, 3, 8)
    _, missing, _ = patches.extract_patches(mesh, LandmarkSet(lmk.labels[:6], positions), cfg)
    index = Neighbourhood(mesh, cfg.lambda_max)
    cropped = [index.faces_within(p).size for p in positions]
    assert missing.tolist() == [size == 0 for size in cropped]
    assert calls == [size for size in cropped if size]


def test_au_flda_reaches_fit_probes_once_per_fit_and_fold(monkeypatch):
    """``evaluate_aus`` shares one standardization per fold across its AUs
    but still fits each (AU, fold) through ``classify.flda_train``, so the
    traced run's per-layer FLDA and standardization metrics stay meaningful."""
    calls = {}
    for owner, name in ((classify, "flda_train"), (experiments, "standardize_fit")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 40))
    subjects = [f"S{i // 3}" for i in range(30)]
    aus = [tuple(a for a in (1, 2, 4) if rng.random() < 0.5) for _ in range(30)]
    splits = classify.identity_disjoint_folds(subjects, 5, seed=0)
    fits = sum(
        1 for au in (1, 2, 4) for train, _ in splits
        if 2 <= sum(au in aus[i] for i in train) <= len(train) - 2)
    flda = experiments.ClassifierConfig(kind="flda")
    result = experiments.evaluate_aus(X, aus, subjects, flda, folds=5, seed=0, aus=(1, 2, 4))
    assert result.skipped == [] and fits == 15
    assert calls == {"flda_train": fits, "standardize_fit": 5}


def test_au_svm_builds_two_kernels_per_fold(monkeypatch):
    """Under SVM, ``evaluate_aus`` builds one train-by-train and one
    test-by-train kernel per fold for all its AUs, still through
    ``classify.kernel_matrix``, and fits every AU of the 5 folds, whose
    Grams fit ``GRAM_BUDGET`` together, in one call of the batched solver
    ``classify.svm_solve_batch``."""
    calls = {}
    problems = []
    for name in ("kernel_matrix", "svm_solve_batch"):
        def counted(*args, _name=name, _original=getattr(classify, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            result = _original(*args, **kwargs)
            if _name == "svm_solve_batch":
                problems.extend(result)
            return result
        monkeypatch.setattr(classify, name, counted)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 40))
    subjects = [f"S{i // 3}" for i in range(30)]
    aus = [tuple(a for a in (1, 2, 4) if rng.random() < 0.5) for _ in range(30)]
    svm = experiments.ClassifierConfig(kind="svm")
    result = experiments.evaluate_aus(X, aus, subjects, svm, folds=5, seed=0, aus=(1, 2, 4))
    assert result.skipped == []
    assert calls == {"kernel_matrix": 2 * 5, "svm_solve_batch": 1}
    assert len(problems) == 3 * 5


def test_svm_predict_decides_through_binary_svm_decision(monkeypatch):
    """``svm_predict`` takes each machine's decision values from
    ``BinarySVM.decision``, the method the traced run rebinds, so the
    per-layer metric ``classify.BinarySVM.decision.s`` stays meaningful:
    3 AUs x 5 folds give 15 binary machines and 15 decisions."""
    calls = []
    original = classify.BinarySVM.decision

    def counted(self, gram):
        calls.append(gram.shape)
        return original(self, gram)

    monkeypatch.setattr(classify.BinarySVM, "decision", counted)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 40))
    subjects = [f"S{i // 3}" for i in range(30)]
    aus = [tuple(a for a in (1, 2, 4) if rng.random() < 0.5) for _ in range(30)]
    svm = experiments.ClassifierConfig(kind="svm")
    result = experiments.evaluate_aus(X, aus, subjects, svm, folds=5, seed=0, aus=(1, 2, 4))
    assert result.skipped == []
    assert len(calls) == 3 * 5
    assert all(shape[0] == 6 for shape in calls)       # 6 test rows per fold
