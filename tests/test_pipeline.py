import numpy as np
import pytest

from facespectra import pipeline
from facespectra.data import DatasetManifest
from facespectra.features import save_feature_table
from facespectra.patches import PatchConfig
from facespectra.pipeline import compute_basis, compute_feature_tables
from facespectra.spectral import DegenerateGeometryError

from conftest import TINY_PATCH_CFG


def test_compute_basis_carries_connectivity_hash():
    cfg = PatchConfig(5, 20, 3, 8)
    basis = compute_basis(cfg, 10)
    assert basis.config_hash == cfg.connectivity_hash()
    assert basis.n == cfg.n_vertices
    assert basis.k == 10


def test_feature_pipeline_deterministic_bytes(tiny_manifest, tiny_basis, tmp_path):
    runs = []
    for name in ("a", "b"):
        (table,), errors = compute_feature_tables(
            tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 10)], basis=tiny_basis)
        assert errors == []
        save_feature_table(tmp_path / name, table)
        runs.append((tmp_path / f"{name}.npy").read_bytes())
    assert runs[0] == runs[1]


def test_parallel_jobs_match_serial(tiny_manifest, tiny_basis):
    (serial,), _ = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 8)], basis=tiny_basis)
    (parallel,), _ = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 8)], basis=tiny_basis, jobs=2)
    assert np.array_equal(serial.X, parallel.X)
    assert serial.subjects == parallel.subjects


def test_multi_spec_matches_single_spec(tiny_manifest, tiny_basis):
    tables, errors = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG,
        [("glf", "coords", 8), ("glf", "norms", 8), ("shapedna", "coords", 8)],
        basis=tiny_basis)
    assert errors == []
    (single,), _ = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG, [("glf", "norms", 8)], basis=tiny_basis)
    assert np.array_equal(tables[1].X, single.X)
    assert tables[0].X.shape[1] == 68 * 8 * 3
    assert tables[1].X.shape[1] == 68 * 8
    assert tables[2].X.shape[1] == 68 * 8
    assert tables[2].mode == "eigenvalues"


def test_drop_constant_shifts_coefficients(tiny_manifest, tiny_basis):
    (base,), _ = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 8)], basis=tiny_basis)
    (dropped,), _ = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 8)], basis=tiny_basis,
        drop_constant=True)
    # dropped table holds rows 1..8, i.e. base's rows 1..7 plus one new row
    assert np.allclose(dropped.X[0, :21], base.X[0, 3:24])


def test_glf_without_basis_rejected(tiny_manifest):
    with pytest.raises(ValueError, match="basis"):
        compute_feature_tables(tiny_manifest, TINY_PATCH_CFG,
                               [("glf", "coords", 5)])


def test_k_exceeding_basis_rejected(tiny_manifest, tiny_basis):
    with pytest.raises(ValueError, match="exceeds"):
        compute_feature_tables(tiny_manifest, TINY_PATCH_CFG,
                               [("glf", "coords", 31)], basis=tiny_basis)


def test_basis_patch_size_mismatch_rejected(tiny_manifest):
    wrong = compute_basis(PatchConfig(5, 20, 3, 8), 10)
    with pytest.raises(ValueError, match="dimension"):
        compute_feature_tables(tiny_manifest, TINY_PATCH_CFG,
                               [("glf", "coords", 5)], basis=wrong)


def test_k_out_of_range_rejected(tiny_manifest, tiny_basis):
    n = TINY_PATCH_CFG.n_vertices
    for spec, match in ((("glf", "coords", 0), "k must be"),
                        (("shapedna", "coords", 0), "k must be"),
                        (("shapedna", "coords", n), "non-zero eigenvalues")):
        with pytest.raises(ValueError, match=match):
            compute_feature_tables(tiny_manifest, TINY_PATCH_CFG, [spec], basis=tiny_basis)
    (table,), errors = compute_feature_tables(
        DatasetManifest(tiny_manifest.records[:1], tiny_manifest.root), TINY_PATCH_CFG,
        [("shapedna", "coords", n - 1)])
    assert errors == [] and table.X.shape[1] == 68 * (n - 1)


def test_descriptor_failure_names_landmark(tiny_manifest, monkeypatch):
    """A landmark whose Shape-DNA fails is flagged missing for that scan and
    its label and reason appear in the scan's errors."""
    real, calls = pipeline.shape_dna, []

    def failing_first_landmark(vertices, faces, k, lumping="mixed"):
        calls.append(None)
        if len(calls) % 68 == 1:
            raise DegenerateGeometryError("injected zero-area face")
        return real(vertices, faces, k, lumping=lumping)

    monkeypatch.setattr(pipeline, "shape_dna", failing_first_landmark)
    manifest = DatasetManifest(tiny_manifest.records[:2], tiny_manifest.root)
    (table,), errors = compute_feature_tables(manifest, TINY_PATCH_CFG,
                                              [("shapedna", "coords", 8)])
    first = table.landmark_labels[0]
    assert [e["scan"] for e in errors] == [str(r.mesh_path) for r in manifest.records]
    for e in errors:
        assert list(e["missing_patches"]) == [first]
        assert "injected zero-area face" in e["missing_patches"][first]
    assert table.missing[:, 0].all() and not table.missing[:, 1:].any()
    assert not table.X[:, :8].any() and table.X[:, 8:].all()
