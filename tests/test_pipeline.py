import dataclasses
import json
import multiprocessing
import os
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from facespectra import features, pipeline
from facespectra.cli import main
from facespectra.data import DatasetManifest, load_manifest
from facespectra.experiments import evaluate_expressions
from facespectra.features import (Descriptor, glf_norms, glf_project, load_feature_table,
                                  save_feature_table)
from facespectra.mesh import LandmarkSet, load_landmarks, load_mesh, save_landmarks
from facespectra.patches import PatchConfig, canonical_connectivity, load_patch_archive
from facespectra.pipeline import compute_basis, compute_feature_tables
from facespectra.spectral import DegenerateGeometryError, shape_dna

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


def test_parallel_jobs_match_serial(tiny_manifest, tiny_basis, tmp_path, monkeypatch):
    (serial,), _ = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 8)], basis=tiny_basis)
    (parallel,), _ = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 8)], basis=tiny_basis, jobs=2)
    assert np.array_equal(serial.X, parallel.X)
    assert serial.subjects == parallel.subjects

    manifest = DatasetManifest(tiny_manifest.records[:6], tiny_manifest.root)

    def run(jobs, out):
        """Every job setting; returns the tables and the archive bytes."""
        tables, errors = compute_feature_tables(
            manifest, TINY_PATCH_CFG,
            [("glf", "coords", 8), ("glf", "norms", 8), ("shapedna", "coords", 8)],
            basis=tiny_basis, jobs=jobs, drop_constant=True, align="normal",
            patches_dir=out)
        assert errors == []
        return tables, {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    serial_tables, serial_arch = run(1, tmp_path / "serial")
    # spawned workers unpickle the job; forked ones would inherit it
    monkeypatch.setattr(pipeline, "multiprocessing", multiprocessing.get_context("spawn"))
    parallel_tables, parallel_arch = run(2, tmp_path / "parallel")
    for a, b in zip(serial_tables, parallel_tables):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.missing, b.missing)
        assert a.subjects == b.subjects
    assert len(serial_arch) == 12 and serial_arch == parallel_arch



_featurize_record = pipeline._featurize_record


def _featurize_noting_worker(rec):
    """``pipeline._featurize_record`` that first leaves a file named after
    its process id in the directory ``$FACESPECTRA_TEST_PIDS``."""
    (Path(os.environ["FACESPECTRA_TEST_PIDS"]) / str(os.getpid())).touch()
    return _featurize_record(rec)


def test_four_scans_on_two_jobs_use_both_workers(tiny_manifest, tiny_basis, tmp_path,
                                                 monkeypatch):
    """With ``jobs=2`` a 4-scan manifest is split across both workers, and
    the table rows keep the manifest order."""
    manifest = DatasetManifest(tiny_manifest.records[:4], tiny_manifest.root)
    monkeypatch.setenv("FACESPECTRA_TEST_PIDS", str(tmp_path))
    monkeypatch.setattr(pipeline, "_featurize_record", _featurize_noting_worker)
    (table,), errors = compute_feature_tables(
        manifest, TINY_PATCH_CFG, [("glf", "coords", 8)], basis=tiny_basis, jobs=2)
    workers = {p.name for p in tmp_path.iterdir()}
    assert len(workers) == 2 and str(os.getpid()) not in workers
    assert errors == [] and table.subjects == [r.subject for r in manifest.records]
    assert table.expressions == [r.expression for r in manifest.records]


def test_pool_has_at_most_one_worker_per_scan(tiny_manifest, tiny_basis, monkeypatch):
    """``jobs`` above the scan count sizes the pool at one worker per scan,
    and one scan runs without a pool; the tables equal the serial ones."""
    sizes = []

    class InProcessPool:
        """``multiprocessing.Pool`` that records its size and maps in this
        process, so no worker is started."""

        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    specs = [("glf", "coords", 8), ("shapedna", "coords", 8)]
    monkeypatch.setattr(pipeline, "multiprocessing", SimpleNamespace(Pool=InProcessPool))
    for n_scans, jobs, pools in ((3, 64, [3]), (3, 2, [2]), (1, 64, [])):
        manifest = DatasetManifest(tiny_manifest.records[:n_scans], tiny_manifest.root)
        sizes.clear()
        pooled, errors = compute_feature_tables(manifest, TINY_PATCH_CFG, specs,
                                                basis=tiny_basis, jobs=jobs)
        assert sizes == pools and errors == [], (n_scans, jobs)
        serial, _ = compute_feature_tables(manifest, TINY_PATCH_CFG, specs, basis=tiny_basis)
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.missing, b.missing)
            assert a.subjects == b.subjects


def test_row_blocks_are_per_patch_descriptors(tiny_manifest, tiny_basis, tmp_path):
    """Landmark block i of a scan's row is the descriptor of its patch i."""
    k = 8
    manifest = DatasetManifest(tiny_manifest.records[:1], tiny_manifest.root)
    tables, errors = compute_feature_tables(
        manifest, TINY_PATCH_CFG,
        [("glf", "coords", k), ("glf", "norms", k), ("shapedna", "coords", k)],
        basis=tiny_basis, patches_dir=tmp_path)
    assert errors == []
    patches, _, _, _ = load_patch_archive(tmp_path / manifest.records[0].mesh_path.stem)
    faces = canonical_connectivity(TINY_PATCH_CFG)
    coords, norms, dna = (t.X[0].reshape(68, -1) for t in tables)
    for i, patch in enumerate(patches):
        coeffs = glf_project(patch, tiny_basis, k)
        assert np.array_equal(coords[i], coeffs.reshape(-1))
        assert np.array_equal(norms[i], glf_norms(coeffs))
        assert np.array_equal(dna[i], shape_dna(patch, faces, k))


def test_a_third_descriptor_is_one_record_and_one_block_function(tiny_manifest, tmp_path,
                                                                 monkeypatch):
    """A toy descriptor, the raw aligned patch coordinates (k vertices of
    x/y/z, no basis), added as one features.DESCRIPTORS record and one
    pipeline.BLOCKS function, runs through featurization, the table
    reader, evaluation and the CLI with no other code knowing it."""
    n = TINY_PATCH_CFG.n_vertices

    def check(k, basis, patch_cfg, drop_constant):
        if k > patch_cfg.n_vertices:
            raise ValueError(f"toy k={k} exceeds the patch's {patch_cfg.n_vertices} vertices")

    def toy_blocks(patches, missing, specs, note):
        return [(patches[:, :k].reshape(-1), missing) for _, _, k in specs]

    monkeypatch.setitem(features.DESCRIPTORS, "toy",
                        Descriptor("toy", {"coords": "coords"}, {"coords": 3}, False, check))
    monkeypatch.setitem(pipeline.BLOCKS, "toy", toy_blocks)
    with pytest.raises(ValueError, match="exceeds the patch's"):
        compute_feature_tables(tiny_manifest, TINY_PATCH_CFG, [("toy", "coords", n + 1)])
    (table,), errors = compute_feature_tables(tiny_manifest, TINY_PATCH_CFG,
                                              [("toy", "coords", n)], align="normal",
                                              patches_dir=tmp_path / "patches")
    assert errors == [] and table.X.shape == (len(tiny_manifest), 68 * 3 * n)
    for rec, row in zip(tiny_manifest.records, table.X):
        patches, _, _, _ = load_patch_archive(tmp_path / "patches" / rec.mesh_path.stem)
        assert np.array_equal(row, patches.reshape(-1))
    save_feature_table(tmp_path / "api", table)
    loaded = load_feature_table(tmp_path / "api")
    assert (loaded.method, loaded.mode, loaded.k) == ("toy", "coords", n)
    result = evaluate_expressions(loaded.X, loaded.expressions, loaded.subjects, folds=3,
                                  missing=loaded.missing)
    assert (result.n_samples, result.folds) == (len(tiny_manifest), 3)
    rc = main(["features", "--manifest", str(tiny_manifest.root / "manifest.csv"),
               "--method", "toy", "--k", str(n), "--align", "normal",
               "--out", str(tmp_path / "cli"), "--lambda-min", "6", "--lambda-max", "14",
               "--curves", "4", "--samples", "12"])
    assert rc == 0
    assert (tmp_path / "cli.npy").read_bytes() == (tmp_path / "api.npy").read_bytes()


@pytest.mark.parametrize("off", [[2], list(range(68))], ids=["one-missing", "all-missing"])
@pytest.mark.parametrize("drop_constant", [False, True])
def test_glf_blocks_are_one_product_over_present_patches(tiny_manifest, tiny_basis, tmp_path,
                                                         monkeypatch, off, drop_constant):
    """A scan's GLF blocks for one spec come from one stacked projection of
    its present patches: each present block is that patch's own
    ``glf_project``, and a missing landmark's block is zero and flagged."""
    rec = tiny_manifest.records[0]
    lmk = load_landmarks(rec.landmarks_path)
    positions = lmk.positions.copy()
    positions[off] += 1000.0                    # far off the mesh
    save_landmarks(tmp_path / "off.csv", LandmarkSet(lmk.labels, positions))
    manifest = DatasetManifest([dataclasses.replace(rec, landmarks_path=tmp_path / "off.csv")],
                               tiny_manifest.root)
    calls = []
    monkeypatch.setattr(pipeline, "glf_project",
                        lambda *args: calls.append(args) or glf_project(*args))
    k, drop = 6, int(drop_constant)
    (coords, norms), errors = compute_feature_tables(
        manifest, TINY_PATCH_CFG, [("glf", "coords", k), ("glf", "norms", k)],
        basis=tiny_basis, drop_constant=drop_constant, patches_dir=tmp_path)
    assert len(calls) == 2                      # one product per scan and spec
    assert list(errors[0]["missing_patches"]) == [lmk.labels[i] for i in off]
    patches, _, missing, _ = load_patch_archive(tmp_path / rec.mesh_path.stem)
    assert np.flatnonzero(missing).tolist() == off
    assert np.array_equal(coords.missing[0], missing) and np.array_equal(norms.missing[0], missing)
    c, n = coords.X[0].reshape(68, -1), norms.X[0].reshape(68, -1)
    assert not c[missing].any() and not n[missing].any()
    for i in np.flatnonzero(~missing):
        coeffs = glf_project(patches[i], tiny_basis, k + drop)[drop:]
        assert np.array_equal(c[i], coeffs.reshape(-1))
        assert np.array_equal(n[i], glf_norms(coeffs))


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


def test_basis_of_another_connectivity_rejected(tiny_manifest):
    """A 12x4 basis has the 49 vertices of the 4x12 patches but not their
    connectivity, so projecting onto it gives no GLF coefficients."""
    other = PatchConfig(6.0, 14.0, 12, 4)
    assert other.n_vertices == TINY_PATCH_CFG.n_vertices
    with pytest.raises(ValueError, match=f"{other.connectivity_hash():#x} .*"
                                         f"{TINY_PATCH_CFG.connectivity_hash():#x}"):
        compute_feature_tables(tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 5)],
                               basis=compute_basis(other, 10))


def test_sidecar_records_run_and_errors_alike_for_any_jobs(tiny_manifest, tiny_basis,
                                                           tmp_path):
    """The sidecar holds every run setting but ``jobs`` and the errors, its
    bytes do not depend on ``jobs``, and a sidecar without either loads."""
    records = tiny_manifest.records[:3]
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 nope\n")
    manifest = DatasetManifest([dataclasses.replace(records[0], mesh_path=bad),
                                *records[1:]], tiny_manifest.root)
    settings = {"align": "normal", "missing_policy": "drop", "drop_constant": True,
                "rescale": 1.0}
    sidecars = []
    for jobs in (1, 2):
        (table,), errors = compute_feature_tables(manifest, TINY_PATCH_CFG,
                                                  [("glf", "coords", 8)], basis=tiny_basis,
                                                  jobs=jobs, **settings)
        save_feature_table(tmp_path / f"jobs{jobs}", table)
        sidecars.append((tmp_path / f"jobs{jobs}.json").read_bytes())
    assert sidecars[0] == sidecars[1]
    assert [e["scan"] for e in errors] == [str(bad)]
    loaded = load_feature_table(tmp_path / "jobs1")
    assert loaded.run == settings and loaded.errors == errors
    meta = json.loads(sidecars[0])
    del meta["run"], meta["errors"]
    (tmp_path / "jobs1.json").write_text(json.dumps(meta))
    older = load_feature_table(tmp_path / "jobs1")
    assert older.run == {} and older.errors == [] and np.array_equal(older.X, table.X)


def test_unknown_align_or_missing_policy_rejected(tiny_manifest, tiny_basis):
    for kwargs, match in (({"align": "sideways"}, "align"),
                          ({"missing_policy": "fill"}, "missing policy")):
        with pytest.raises(ValueError, match=match):
            compute_feature_tables(tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 5)],
                                   basis=tiny_basis, **kwargs)


def test_unknown_align_named_before_any_scan_is_read(tiny_manifest, tmp_path):
    """An unknown align is named up front, also when no scan can be read
    and before a worker pool starts."""
    manifest = DatasetManifest(
        [dataclasses.replace(rec, mesh_path=tmp_path / f"gone{i}.obj")
         for i, rec in enumerate(tiny_manifest.records[:2])], tiny_manifest.root)
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="align"):
            compute_feature_tables(manifest, TINY_PATCH_CFG, [("shapedna", "coords", 5)],
                                   align="sideways", jobs=jobs)


def test_rescale_and_jobs_out_of_range_rejected(tiny_manifest, tiny_basis):
    for kwargs, match in (({"rescale": 0.0}, "rescale"), ({"rescale": -1.0}, "rescale"),
                          ({"rescale": float("nan")}, "rescale"), ({"jobs": 0}, "jobs"),
                          ({"jobs": -2}, "jobs")):
        with pytest.raises(ValueError, match=match):
            compute_feature_tables(tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 5)],
                                   basis=tiny_basis, **kwargs)


def test_k_out_of_range_rejected(tiny_manifest, tiny_basis):
    n = TINY_PATCH_CFG.n_vertices
    for spec, match in ((("glf", "coords", 0), "k must be"),
                        (("shapedna", "coords", 0), "k must be"),
                        (("shapedna", "coords", n), "non-zero eigenvalues"),
                        (("shapedna", "norms", 5), "unknown shapedna mode 'norms'"),
                        (("shapedna", "bogus", 5), "unknown shapedna mode 'bogus'"),
                        (("glf", "bogus", 5), "unknown glf mode 'bogus'"),
                        (("curves", "coords", 5), "unknown method 'curves'")):
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

    def failing_first_landmark(vertices, faces, k):
        calls.append(None)
        if len(calls) % 68 == 1:
            raise DegenerateGeometryError("injected zero-area face")
        return real(vertices, faces, k)

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


def test_shape_dna_specs_solve_each_patch_once(tiny_manifest, monkeypatch):
    """Several Shape-DNA specs solve each present patch once, at the
    largest k, and each spec's table is byte for byte the table of its own
    single-spec run, errors and missing flags too (the first landmark of
    each scan fails its geometry)."""
    real, calls = pipeline.shape_dna, []

    def counted(vertices, faces, k):
        calls.append(k)
        if len(calls) % 68 == 1:
            raise DegenerateGeometryError("injected zero-area face")
        return real(vertices, faces, k)

    monkeypatch.setattr(pipeline, "shape_dna", counted)
    manifest = DatasetManifest(tiny_manifest.records[:2], tiny_manifest.root)
    specs = [("shapedna", "coords", 5), ("shapedna", "eigenvalues", 12),
             ("shapedna", "coords", 8)]
    tables, errors = compute_feature_tables(manifest, TINY_PATCH_CFG, specs)
    assert calls == [12] * (2 * 68)
    for spec, table in zip(specs, tables):
        calls.clear()
        (alone,), alone_errors = compute_feature_tables(manifest, TINY_PATCH_CFG, [spec])
        assert calls == [spec[2]] * (2 * 68)
        assert table.X.tobytes() == alone.X.tobytes()
        assert np.array_equal(table.missing, alone.missing) and table.missing[:, 0].all()
        assert [{label: reason.split("; ")[specs.index(spec)]
                 for label, reason in e["missing_patches"].items()} for e in errors] \
            == [e["missing_patches"] for e in alone_errors]


def test_unreadable_inputs_skip_scan_naming_file(tiny_dataset_dir, tiny_basis, tmp_path):
    shutil.copytree(tiny_dataset_dir, tmp_path / "data")
    manifest = load_manifest(tmp_path / "data" / "manifest.csv")
    manifest = DatasetManifest(manifest.records[:5], manifest.root)
    mesh0, lmk1, mesh2, mesh3 = (manifest.records[0].mesh_path,
                                 manifest.records[1].landmarks_path,
                                 manifest.records[2].mesh_path, manifest.records[3].mesh_path)
    mesh0.write_bytes(b"\xff\xfe" + mesh0.read_bytes())           # not UTF-8
    header, first, *rest = lmk1.read_text().splitlines()
    lmk1.write_text("\n".join([header, first, first] + rest) + "\n")  # duplicate label
    with open(mesh2, "a") as fh:
        fh.write("f 1 2 99999\n")                                  # index past the end
    with open(mesh3, "a") as fh:
        fh.write("f 1 2 99999999999999999999999\n")                # index beyond int64
    (table,), errors = compute_feature_tables(manifest, TINY_PATCH_CFG,
                                              [("glf", "coords", 5)], basis=tiny_basis)
    assert table.subjects == [manifest.records[4].subject]
    assert [e["scan"] for e in errors] == [str(r.mesh_path) for r in manifest.records[:4]]
    for e, bad in zip(errors, (mesh0, lmk1, mesh2, mesh3)):
        assert str(bad) in e["error"], e
    last_line = len(mesh3.read_text().splitlines())
    assert f"line {last_line}: face index" in errors[3]["error"]


def test_no_scan_featurized_names_count_and_first_reason(tiny_manifest, tiny_basis, tmp_path):
    """When every scan fails to load, or every scan is dropped, the error
    names the scan count and the first scan with its reason, and carries
    every scan's record."""
    records = tiny_manifest.records[:3]
    unreadable = DatasetManifest(
        [dataclasses.replace(rec, mesh_path=tmp_path / f"gone{i}.obj")
         for i, rec in enumerate(records)], tiny_manifest.root)
    with pytest.raises(pipeline.FeaturizationError) as exc:
        compute_feature_tables(unreadable, TINY_PATCH_CFG, [("glf", "coords", 5)],
                               basis=tiny_basis)
    assert [e["scan"] for e in exc.value.errors] == [str(tmp_path / f"gone{i}.obj")
                                                     for i in range(3)]
    first = exc.value.errors[0]
    assert str(exc.value) == (f"no scan could be featurized (3 scan(s)); first, "
                              f"{first['scan']}: {first['error']}")
    assert "gone0.obj" in first["error"]

    lmk = load_landmarks(records[0].landmarks_path)
    off = tmp_path / "off_surface.csv"
    save_landmarks(off, LandmarkSet(lmk.labels, lmk.positions + [0.0, 0.0, 1000.0]))
    dropped = DatasetManifest([dataclasses.replace(rec, landmarks_path=off) for rec in records],
                              tiny_manifest.root)
    with pytest.raises(pipeline.FeaturizationError) as exc:
        compute_feature_tables(dropped, TINY_PATCH_CFG, [("glf", "coords", 5)],
                               basis=tiny_basis, missing_policy="drop")
    assert len(exc.value.errors) == 6               # missing patches, then dropped, per scan
    assert str(exc.value) == (f"no scan could be featurized (3 scan(s)); first, "
                              f"{records[0].mesh_path}: {exc.value.errors[0]['missing_patches']}")


def test_archive_stem_clash_refused_before_any_scan_is_read(tiny_manifest, tmp_path):
    """Two scans whose meshes share a file stem would write one patch
    archive; the run is refused up front, naming the stem and both files,
    before a mesh is read or a worker pool starts."""
    a, b = tmp_path / "a" / "scan.obj", tmp_path / "b" / "scan.obj"   # neither exists
    manifest = DatasetManifest(
        [dataclasses.replace(rec, mesh_path=path)
         for rec, path in zip(tiny_manifest.records, (a, b))], tiny_manifest.root)
    for jobs in (1, 2):
        with pytest.raises(ValueError, match=re.escape(f"scans {a} and {b} would both save "
                                                       f"their patches as 'scan'")):
            compute_feature_tables(manifest, TINY_PATCH_CFG, [("shapedna", "coords", 5)],
                                   patches_dir=tmp_path / "arch", jobs=jobs)
    assert not (tmp_path / "arch").exists()


def test_programming_error_propagates(tiny_manifest, tiny_basis, monkeypatch):
    """Only unreadable inputs skip a scan; a bug in the featurizer aborts."""
    def broken(patch, basis, k):
        raise TypeError("injected bug")

    monkeypatch.setattr(pipeline, "glf_project", broken)
    with pytest.raises(TypeError, match="injected bug"):
        compute_feature_tables(tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 5)],
                               basis=tiny_basis, jobs=1)


def test_serial_run_releases_its_job(tiny_manifest, tiny_basis, monkeypatch):
    """A serial run leaves no basis or faces behind in the process, whether
    it returns or raises."""
    compute_feature_tables(tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 5)],
                           basis=tiny_basis, jobs=1)
    assert pipeline._JOB is None

    def broken(patch, basis, k):
        raise TypeError("injected bug")

    monkeypatch.setattr(pipeline, "glf_project", broken)
    with pytest.raises(TypeError, match="injected bug"):
        compute_feature_tables(tiny_manifest, TINY_PATCH_CFG, [("glf", "coords", 5)],
                               basis=tiny_basis, jobs=1)
    assert pipeline._JOB is None


def test_rescale_applies_to_meshes_and_landmarks(tiny_manifest, tiny_basis, tmp_path):
    """A corpus stored at twice the scale and read back with rescale=0.5
    gives the original table exactly (scaling by 2 is exact)."""
    records = tiny_manifest.records[:2]
    doubled = []
    for rec in records:
        mesh = load_mesh(rec.mesh_path)
        lmk = load_landmarks(rec.landmarks_path)
        mesh_path = tmp_path / rec.mesh_path.name
        lmk_path = tmp_path / rec.landmarks_path.name
        mesh_path.write_text(
            "".join("v %r %r %r\n" % tuple(v) for v in (2 * mesh.vertices).tolist())
            + "".join("f %d %d %d\n" % tuple(f) for f in (mesh.faces + 1).tolist()))
        lmk_path.write_text("label,x,y,z\n" + "".join(
            "%s,%r,%r,%r\n" % (label, *p) for label, p in
            zip(lmk.labels, (2 * lmk.positions).tolist())))
        doubled.append(dataclasses.replace(rec, mesh_path=mesh_path, landmarks_path=lmk_path))
    spec = [("glf", "coords", 8)]
    (orig,), errors = compute_feature_tables(DatasetManifest(records, tiny_manifest.root),
                                             TINY_PATCH_CFG, spec, basis=tiny_basis)
    assert errors == []
    (scaled,), errors = compute_feature_tables(DatasetManifest(doubled, tmp_path),
                                               TINY_PATCH_CFG, spec, basis=tiny_basis,
                                               rescale=0.5)
    assert errors == []
    assert np.array_equal(scaled.X, orig.X) and not scaled.missing.any()


def test_mesh_in_metres_names_units_and_rescale(tiny_manifest, tiny_basis, tmp_path):
    """A scan stored in metres (scaled by 1e-3) loses every landmark, and
    each reason ends with a hint naming its bounding-box diagonal, the
    largest level and ``--rescale``; the clean scan next to it gives the
    row and the (empty) errors it gives alone."""
    clean, scaled = tiny_manifest.records[:2]
    mesh = load_mesh(scaled.mesh_path)
    lmk = load_landmarks(scaled.landmarks_path)
    mesh_path = tmp_path / scaled.mesh_path.name
    lmk_path = tmp_path / scaled.landmarks_path.name
    mesh_path.write_text(
        "".join("v %r %r %r\n" % tuple(v) for v in (1e-3 * mesh.vertices).tolist())
        + "".join("f %d %d %d\n" % tuple(f) for f in (mesh.faces + 1).tolist()))
    save_landmarks(lmk_path, LandmarkSet(lmk.labels, 1e-3 * lmk.positions))
    metres = dataclasses.replace(scaled, mesh_path=mesh_path, landmarks_path=lmk_path)
    spec = [("glf", "coords", 8)]
    (table,), errors = compute_feature_tables(DatasetManifest([clean, metres], tmp_path),
                                              TINY_PATCH_CFG, spec, basis=tiny_basis)
    (alone,), alone_errors = compute_feature_tables(DatasetManifest([clean], tmp_path),
                                                    TINY_PATCH_CFG, spec, basis=tiny_basis)
    assert alone_errors == [] and table.X[0].tobytes() == alone.X[0].tobytes()
    assert table.missing.tolist() == [[False] * len(lmk.labels), [True] * len(lmk.labels)]
    (error,) = errors
    assert error["scan"] == str(mesh_path)
    assert list(error["missing_patches"]) == list(lmk.labels)
    diagonal = np.linalg.norm(np.ptp(1e-3 * mesh.vertices, axis=0))
    hint = (f"; hint: the scan's bounding-box diagonal {diagonal:.4g} is below the largest "
            f"level 14, so coordinates may not be in millimetres; see --rescale")
    assert diagonal < 1.0
    for label, reason in error["missing_patches"].items():
        assert reason == f"iso-level 6.0 has no crossings (landmark {label!r}){hint}"


def test_missing_policy_zero_flags_and_drop_removes_scan(tiny_manifest, tiny_basis, tmp_path):
    records = tiny_manifest.records[:3]
    lmk = load_landmarks(records[0].landmarks_path)
    positions = lmk.positions.copy()
    positions[2] += 1000.0                      # far off the mesh
    off = tmp_path / "off_surface.csv"
    save_landmarks(off, LandmarkSet(lmk.labels, positions))
    manifest = DatasetManifest([dataclasses.replace(records[0], landmarks_path=off),
                                *records[1:]], tiny_manifest.root)
    scan = str(records[0].mesh_path)
    tables = {}
    for policy in ("zero", "drop"):
        (tables[policy],), errors = compute_feature_tables(
            manifest, TINY_PATCH_CFG, [("glf", "coords", 5)], basis=tiny_basis,
            missing_policy=policy)
        assert errors[0]["scan"] == scan
        assert list(errors[0]["missing_patches"]) == [lmk.labels[2]]
        if policy == "zero":
            assert len(errors) == 1
        else:
            assert errors[1:] == [{"scan": scan, "error": "dropped (missing patches "
                                                          "under --missing drop)"}]
    zero, drop = tables["zero"], tables["drop"]
    assert zero.missing.shape[0] == 3 and np.flatnonzero(zero.missing[0]).tolist() == [2]
    assert not zero.missing[1:].any() and not zero.X[0, 2 * 15:3 * 15].any()
    assert np.array_equal(drop.X, zero.X[1:]) and not drop.missing.any()
    assert drop.subjects == zero.subjects[1:]
