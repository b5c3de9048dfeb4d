"""Acceptance suite: one test per criterion, run in order.

Each test prints a single PASS line once every assertion in the
criterion holds (run with ``pytest -s`` to see them live).  The heavy
end-to-end fixtures (synthetic dataset, shared extraction) are session
scoped and charged to the first criterion that uses them.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from facespectra.classify import (
    flda_train,
    identity_disjoint_folds,
    kernel_matrix,
    svm_train_binary,
)
from facespectra.data import load_manifest
from facespectra.experiments import (
    ClassifierConfig,
    build_report,
    compare_methods,
    eigen_sweep,
    evaluate_expressions,
    expression_report_section,
    format_sweep_result,
    sweep_report_section,
    validate_report,
)
from facespectra.features import glf_norms, glf_project, truncation_columns
from facespectra.patches import PatchConfig, build_patch, canonical_connectivity
from facespectra.pipeline import compute_basis, compute_feature_tables
from facespectra.spectral import (
    cotan_stiffness,
    eig_sym,
    graph_laplacian,
    shape_dna,
    voronoi_mass,
)
from facespectra.synth import SynthConfig, generate_scan, synth_generate

from experiment_oracles import shuffle_within_subjects
from geometry_oracles import RigidTransform, glf_reconstruct
from smo_oracles import brute_force_dual_optimum, svm_dual_objective

# Experiment-scale configuration: 15 curves over [5, 20] mm as in the
# standard setup; 20 samples per curve keeps the basis at 301x301 so the
# 200-component sweep stays cheap on one core.  The dataset difficulty is
# raised (small expression bumps, strong identity variation, measurement
# jitter) so the task is separable but not trivially so and the method
# comparison carries signal.
ACC_PATCH = PatchConfig(5.0, 20.0, 15, 20)
ACC_KMAX = 200
ACC_SYNTH = SynthConfig(subjects=20, resolution=64, seed=11, amplitude=1.2,
                        subject_amplitude=3.5, jitter=0.4)
SVM = ClassifierConfig(kind="svm", kernel="rbf", C=1.0)


def _pass(num, name):
    print(f"\nACCEPTANCE CRITERION {num} ({name}): PASS")


@pytest.fixture(scope="session")
def acc_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_synth")
    t0 = time.monotonic()
    manifest_path = synth_generate(ACC_SYNTH, out)
    gen_s = time.monotonic() - t0
    manifest = load_manifest(manifest_path)
    assert len(manifest) == 20 * 6 * 2
    return {"manifest": manifest, "gen_s": gen_s}


@pytest.fixture(scope="session")
def acc_tables(acc_dataset):
    t0 = time.monotonic()
    basis = compute_basis(ACC_PATCH, ACC_KMAX)
    tables, errors = compute_feature_tables(
        acc_dataset["manifest"], ACC_PATCH,
        [("glf", "coords", ACC_KMAX), ("shapedna", "coords", ACC_KMAX)],
        basis=basis,
    )
    assert errors == []
    assert not tables[0].missing.any()
    return {
        "glf": tables[0],
        "dna": tables[1],
        "basis": basis,
        "features_s": time.monotonic() - t0,
        "gen_s": acc_dataset["gen_s"],
    }


def test_criterion_1_spectral_oracles():
    t0 = time.monotonic()
    p3 = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.allclose(eig_sym(p3, 3).eigenvalues, [0, 1, 3], atol=1e-9)
    c3 = graph_laplacian(np.array([[0, 1, 2]]), 3)
    assert np.allclose(eig_sym(c3, 3).eigenvalues, [0, 3, 3], atol=1e-9)
    c4 = np.array([[2.0, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]])
    circulant = sorted(2 - 2 * math.cos(2 * math.pi * j / 4) for j in range(4))
    assert np.allclose(eig_sym(c4, 4).eigenvalues, circulant, atol=1e-9)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(1, "spectral oracles")


def test_criterion_2_operator_invariants():
    t0 = time.monotonic()
    # integer row sums of the connectivity laplacian are exactly zero
    default_cfg = PatchConfig()          # 751-dim default basis
    faces = canonical_connectivity(default_cfg)
    L = graph_laplacian(faces, default_cfg.n_vertices)
    assert (L.sum(axis=1) == 0).all()
    # stiffness row sums and mass partition on a real extracted patch
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, resolution=64, seed=4), 0, "HA", 2)
    idx = lmk.labels.index("NOSE_4")
    patch = build_patch(mesh, ("NOSE_4", lmk.positions[idx]), ACC_PATCH)
    pfaces = canonical_connectivity(ACC_PATCH)
    S = cotan_stiffness(patch, pfaces)
    assert np.abs(S.sum(axis=1)).max() <= 1e-9 * np.abs(S).max()
    B = voronoi_mass(patch, pfaces)
    tri = patch[pfaces]
    total_area = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum()
    assert B.sum() == pytest.approx(total_area, rel=1e-9)
    # eigen residual on the full 751-dim default basis
    basis = eig_sym(L, default_cfg.n_vertices)
    res = basis.residual(L.astype(float))
    assert res <= 1e-7 * max(1.0, np.abs(basis.eigenvalues).max())
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(2, "operator invariants")


def test_criterion_3_shape_dna_laws():
    t0 = time.monotonic()
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, resolution=64, seed=8), 0, "FE", 2)
    pfaces = canonical_connectivity(ACC_PATCH)
    rng = np.random.default_rng(99)
    labels = ["NOSE_4", "MOUTH_0", "LBROW_2", "RCHEEK_0", "LEYE_0", "CHIN_1"]
    assert len(labels) >= 5
    for label in labels:
        pos = lmk.positions[lmk.labels.index(label)]
        patch = build_patch(mesh, (label, pos), ACC_PATCH)
        w0 = shape_dna(patch, pfaces, 40)
        t = RigidTransform.random(rng, max_translation=25.0)
        w_rigid = shape_dna(t.apply(patch), pfaces, 40)
        assert np.abs(w_rigid - w0).max() <= 1e-8 * np.abs(w0).max()
        s = float(rng.uniform(0.5, 3.0))
        w_scaled = shape_dna(patch * s, pfaces, 40)
        assert np.abs(w_scaled - w0 / s**2).max() <= 1e-6 * np.abs(w0 / s**2).max()
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _pass(3, "shape-dna invariance laws")


def test_criterion_4_glf_projection_laws():
    t0 = time.monotonic()
    mesh, lmk, _ = generate_scan(SynthConfig(subjects=1, resolution=64, seed=2), 0, "SA", 1)
    idx = lmk.labels.index("MOUTH_3")
    patch = build_patch(mesh, ("MOUTH_3", lmk.positions[idx]), ACC_PATCH)
    n = ACC_PATCH.n_vertices
    basis = compute_basis(ACC_PATCH)     # full basis, k = n
    X = patch
    # translation moves only row 0
    shift = np.array([3.0, -2.0, 1.0])
    C0 = glf_project(X, basis, 60)
    C1 = glf_project(X + shift, basis, 60)
    assert np.allclose((C1 - C0)[0], math.sqrt(n) * shift, atol=1e-9)
    assert np.abs((C1 - C0)[1:]).max() <= 1e-9
    # rotation leaves per-row norms unchanged
    t = RigidTransform.random(np.random.default_rng(5))
    C_rot = glf_project(X @ t.rotation.T, basis, 60)
    assert np.abs(glf_norms(C_rot) - glf_norms(C0)).max() <= 1e-9
    # full-basis reconstruction
    C_full = glf_project(X, basis, n)
    assert np.abs(glf_reconstruct(C_full, basis) - X).max() <= 1e-8
    # bit-identical recomputation
    basis2 = compute_basis(ACC_PATCH)
    assert glf_project(X, basis2, 60).tobytes() == C0.tobytes()
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(4, "glf projection laws")


def test_criterion_5_solver_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    # SVM dual vs brute-force QP enumeration on <= 8 point sets
    for trial in range(3):
        n = int(rng.integers(5, 9))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        if abs(y.sum()) == n:
            y[0] = -y[0]
        C = float(rng.choice([0.7, 1.0, 4.0]))
        for kernel, gamma in (("linear", None), ("rbf", 0.7)):
            machine = svm_train_binary(X, y, kernel=kernel, C=C, gamma=gamma, tol=1e-6)
            K = kernel_matrix(X, X, kernel, gamma)
            oracle = brute_force_dual_optimum(K, y, C)
            assert svm_dual_objective(machine, K) == pytest.approx(oracle, abs=1e-3)
    # FLDA projection vs a dense generalized-eigen oracle on random 10-D data
    import scipy.linalg

    for trial in range(3):
        d, C_cls = 10, 3
        X, ylab = [], []
        for c in range(C_cls):
            X.append(rng.normal(size=(30, d)) + rng.normal(size=d) * 3)
            ylab += [f"C{c}"] * 30
        X = np.vstack(X)
        model = flda_train(X, ylab, reg=1e-3)
        yarr = np.asarray(ylab)
        mu = X.mean(axis=0)
        Sw = np.zeros((d, d))
        Sb = np.zeros((d, d))
        for c in sorted(set(ylab)):
            Xc = X[yarr == c]
            mc = Xc.mean(axis=0)
            Sw += (Xc - mc).T @ (Xc - mc)
            Sb += len(Xc) * np.outer(mc - mu, mc - mu)
        w, v = scipy.linalg.eig(Sb, Sw + (1e-3 * np.trace(Sw) / d) * np.eye(d))
        V = v[:, np.argsort(w.real)[::-1][:C_cls - 1]].real
        Qa = np.linalg.qr(model.projection)[0]
        Qb = np.linalg.qr(V)[0]
        angles = np.arccos(np.clip(np.linalg.svd(Qa.T @ Qb, compute_uv=False), -1, 1))
        assert angles.max() < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(5, "solver oracles")


def test_criterion_6_end_to_end_synthetic(acc_tables, tmp_path):
    t0 = time.monotonic()
    table = acc_tables["glf"]
    X = table.X[:, truncation_columns(68, "glf", "coords", ACC_KMAX, 50)]
    assert X.shape[1] == 68 * 50 * 3            # 10200 columns at k=50
    res = evaluate_expressions(X, table.expressions, table.subjects,
                               classifier=SVM, folds=10, seed=0)
    assert res.folds == 10
    # chance control: within-subject label permutation (the grouped-design
    # null; a global shuffle would leave subject-level imbalances whose
    # variance is limited by the subject count, not the sample count)
    shuffled = shuffle_within_subjects(table.expressions, table.subjects, 77)
    control = evaluate_expressions(X, shuffled, table.subjects,
                                   classifier=SVM, folds=10, seed=0)
    report = build_report(
        "expressions",
        {"dataset": asdict(ACC_SYNTH), "patch_config": ACC_PATCH.to_dict(),
         "method": "glf", "k": 50, "classifier": SVM.to_dict(),
         "control_accuracy": control.mean_accuracy},
        expression_report_section(res),
    )
    path = tmp_path / "acceptance_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh)
    validate_report(json.loads(path.read_text()))
    elapsed = time.monotonic() - t0
    total = elapsed + acc_tables["gen_s"] + acc_tables["features_s"]
    print(f"\n  glf accuracy {100 * res.mean_accuracy:.2f}%, "
          f"control {100 * control.mean_accuracy:.2f}%, "
          f"end-to-end {total:.0f}s")
    assert res.mean_accuracy >= 0.85
    assert 0.10 <= control.mean_accuracy <= 0.24
    assert res.mean_accuracy > control.mean_accuracy
    assert total < 600.0
    _pass(6, "end-to-end synthetic experiment")


def test_criterion_7_method_comparison_emitted(acc_tables, tmp_path):
    # Reference accuracy figures from the licensed corpus are NOT claimed
    # or asserted here; this harness only emits the paired comparison on
    # synthetic data, where the ordering is informative rather than
    # normative.
    glf, dna = acc_tables["glf"], acc_tables["dna"]
    X_glf = glf.X[:, truncation_columns(68, "glf", "coords", ACC_KMAX, 50)]
    X_dna = dna.X[:, truncation_columns(68, "shapedna", "eigenvalues", ACC_KMAX, 50)]
    assert X_dna.shape[1] == 68 * 50            # 3400 columns at k=50
    res_glf = evaluate_expressions(X_glf, glf.expressions, glf.subjects,
                                   classifier=SVM, folds=10, seed=0)
    res_dna = evaluate_expressions(X_dna, dna.expressions, dna.subjects,
                                   classifier=SVM, folds=10, seed=0)
    cmp = compare_methods({"glf": res_glf, "shapedna": res_dna})
    report = build_report("expressions", {"comparison_of": ["glf", "shapedna"]},
                          expression_report_section(res_glf), comparison=cmp)
    path = tmp_path / "comparison_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh)
    validate_report(json.loads(path.read_text()))
    assert cmp["methods"] == ["glf", "shapedna"]
    assert len(cmp["paired_differences"]) == 10
    assert set(cmp["mean_accuracy"]) == {"glf", "shapedna"}
    print(f"\n  synthetic-data ordering (informative): {cmp['ordering']}; "
          f"mean paired difference {100 * cmp['mean_difference']:+.2f} points; "
          f"corpus-based reference accuracies are not claimed")
    _pass(7, "method comparison emitted, corpus numbers not claimed")


def test_criterion_8_eigen_sweep_grid(acc_tables, tmp_path):
    t0 = time.monotonic()
    ks = [10, 30, 50, 100, 200]
    res = eigen_sweep(acc_tables["glf"], ks, classifier=SVM, folds=10, seed=0)
    assert res.k_values == ks
    assert sorted(res.per_k) == sorted(ks)
    # folds are shared across k: identical identity-disjoint assignment
    expected_folds = identity_disjoint_folds(acc_tables["glf"].subjects, 10, 0)
    for k in ks:
        assert res.per_k[k].folds == len(expected_folds)
    report = build_report("sweep", {"k_values": ks}, sweep_report_section(res))
    path = tmp_path / "sweep_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh)
    validate_report(json.loads(path.read_text()))
    table_text = format_sweep_result(res)
    for k in ks:
        assert str(k) in table_text.splitlines()[0]
    elapsed = time.monotonic() - t0
    print("\n" + table_text)
    assert elapsed + acc_tables["features_s"] < 1800.0
    _pass(8, "eigenvalue-count sweep grid")
