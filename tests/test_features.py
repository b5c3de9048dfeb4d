import json

import numpy as np
import pytest

from facespectra.features import (
    FeatureTable,
    block_length,
    feature_names,
    glf_norms,
    glf_project,
    load_feature_table,
    save_feature_csv,
    save_feature_table,
    truncation_columns,
)
from facespectra.patches import PatchConfig
from facespectra.pipeline import compute_basis

from geometry_oracles import RigidTransform, glf_reconstruct


CFG = PatchConfig(5, 20, 3, 8)   # n = 25
N = CFG.n_vertices


@pytest.fixture(scope="module")
def basis():
    return compute_basis(CFG)    # full basis, k = n


def smooth_patch(seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(N, 3)).cumsum(axis=0)
    return base - base[0]        # apex-centered like real patches


def test_projection_shape_and_linearity(basis):
    X = smooth_patch()
    C = glf_project(X, basis, 10)
    assert C.shape == (10, 3)
    C2 = glf_project(2.0 * X, basis, 10)
    assert np.allclose(C2, 2.0 * C, atol=1e-12)


def test_translation_moves_only_row_zero(basis):
    X = smooth_patch(1)
    t = np.array([2.0, -3.0, 0.5])
    C0 = glf_project(X, basis, 12)
    C1 = glf_project(X + t, basis, 12)
    delta = C1 - C0
    assert np.allclose(delta[0], np.sqrt(N) * t, atol=1e-9)
    assert np.abs(delta[1:]).max() <= 1e-9


def test_rotation_transforms_rows_and_preserves_norms(basis):
    X = smooth_patch(2)
    rng = np.random.default_rng(7)
    t = RigidTransform.random(rng)
    C0 = glf_project(X, basis, 15)
    C1 = glf_project(X @ t.rotation.T, basis, 15)
    assert np.abs(C1 - C0 @ t.rotation.T).max() < 1e-9
    assert np.abs(glf_norms(C1) - glf_norms(C0)).max() < 1e-9


def test_eigenvector_embeds_as_indicator(basis):
    X = np.zeros((N, 3))
    X[:, 0] = basis.eigenvectors[:, 5]
    C = glf_project(X, basis, 10)
    expected = np.zeros((10, 3))
    expected[5, 0] = 1.0
    assert np.abs(C - expected).max() < 1e-12


def test_norms_hand_case_and_zero_patch(basis):
    assert np.allclose(glf_norms([[3.0, 4.0, 0.0], [0.0, 0.0, 5.0]]), [5.0, 5.0])
    C = glf_project(np.zeros((N, 3)), basis, 6)
    assert np.array_equal(glf_norms(C), np.zeros(6))


def test_full_basis_reconstruction(basis):
    X = smooth_patch(3)
    C = glf_project(X, basis, N)
    assert np.abs(glf_reconstruct(C, basis) - X).max() <= 1e-8


def test_truncation_monotonicity(basis):
    X = smooth_patch(4)
    errs = []
    for k in range(1, N + 1):
        C = glf_project(X, basis, k)
        errs.append(np.linalg.norm(glf_reconstruct(C, basis) - X))
    errs = np.array(errs)
    assert (np.diff(errs) <= 1e-10).all()


def test_projection_bit_identical_across_runs():
    X = smooth_patch(5)
    b1 = compute_basis(CFG)
    b2 = compute_basis(CFG)
    c1 = glf_project(X, b1, 20)
    c2 = glf_project(X, b2, 20)
    assert c1.tobytes() == c2.tobytes()


def test_projection_dimension_mismatch_errors(basis):
    with pytest.raises(ValueError, match="dimension"):
        glf_project(np.zeros((N + 1, 3)), basis, 5)
    with pytest.raises(ValueError, match="k"):
        glf_project(np.zeros((N, 3)), basis, N + 1)


# ---------------------------------------------------------------------------
# table persistence and slicing

def make_table(seed=0, k=6, n_landmarks=3, n_samples=5):
    rng = np.random.default_rng(seed)
    width = n_landmarks * 3 * k
    return FeatureTable(
        X=rng.normal(size=(n_samples, width)),
        subjects=[f"S{i % 2}" for i in range(n_samples)],
        expressions=["AN", "DI", "FE", "HA", "SA"][:n_samples],
        intensities=[1] * n_samples,
        aus=[(1, 2)] * n_samples,
        missing=np.zeros((n_samples, n_landmarks), dtype=bool),
        landmark_labels=[f"L{i}" for i in range(n_landmarks)],
        method="glf",
        mode="coords",
        k=k,
        config=PatchConfig(5, 20, 3, 8).to_dict(),
        config_hash=123,
    )


def test_feature_table_roundtrip(tmp_path):
    table = make_table()
    save_feature_table(tmp_path / "t", table)
    back = load_feature_table(tmp_path / "t")
    assert np.array_equal(back.X, table.X)
    assert back.subjects == table.subjects
    assert back.aus == [(1, 2)] * 5
    assert back.k == table.k and back.method == "glf"


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 40])


@pytest.mark.parametrize("spoil, name", [(_truncate, "t.npy")], ids=["truncated-npy"])
def test_feature_table_unreadable_file_named(tmp_path, spoil, name):
    save_feature_table(tmp_path / "t", make_table())
    spoil(tmp_path / name)
    with pytest.raises(ValueError) as exc:
        load_feature_table(tmp_path / "t")
    assert str(exc.value).startswith(f"{tmp_path / name}: ")


def test_feature_table_matrix_not_2d_named(tmp_path):
    save_feature_table(tmp_path / "t", make_table())
    np.save(tmp_path / "t.npy", np.zeros(5))
    with pytest.raises(ValueError, match="expected 2-D") as exc:
        load_feature_table(tmp_path / "t")
    assert str(exc.value).startswith(f"{tmp_path / 't.npy'}: ")


def _edit_sidecar(path, edit):
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


@pytest.mark.parametrize("edit, field, message", [
    (lambda m: m.pop("subjects"), "subjects", "is missing"),
    (lambda m: m["missing"].pop(), "missing", "has 4 rows for 5 samples"),
    (lambda m: m["missing"][0].pop(), "missing", "one flag per landmark (3)"),
    (lambda m: m["aus"].append([1]), "aus", "has 6 rows for 5 samples"),
    (lambda m: m.update(k="five"), "k", "invalid literal"),
    (lambda m: m.update(intensities=None), "intensities", "not iterable"),
], ids=["no-subjects", "missing-row-short", "missing-column-short", "aus-row-extra",
        "k-word", "intensities-null"])
def test_feature_table_bad_sidecar_field_named(tmp_path, edit, field, message):
    """A sidecar that parses but lacks a field, holds one that does not
    convert, or has the wrong number of rows names the file and the field."""
    save_feature_table(tmp_path / "t", make_table())
    _edit_sidecar(tmp_path / "t.json", edit)
    with pytest.raises(ValueError) as exc:
        load_feature_table(tmp_path / "t")
    assert str(exc.value).startswith(f"{tmp_path / 't.json'}: field {field!r}")
    assert message in str(exc.value)


def test_truncation_columns_match_direct_slice():
    table = make_table(k=6)
    cols = truncation_columns(3, "glf", "coords", 6, 2)
    sliced = table.X[:, cols]
    assert sliced.shape[1] == 3 * 3 * 2
    # block b columns [b*18 .. b*18+6) survive
    expected = np.concatenate([np.arange(b * 18, b * 18 + 6) for b in range(3)])
    assert np.array_equal(cols, expected)
    assert np.array_equal(sliced, table.X[:, expected])


def test_feature_names_pattern():
    names = feature_names(["NOSE_0"], "glf", "coords", 2)
    assert names == ["LNOSE_0_e0_x", "LNOSE_0_e0_y", "LNOSE_0_e0_z",
                     "LNOSE_0_e1_x", "LNOSE_0_e1_y", "LNOSE_0_e1_z"]
    assert feature_names(["A"], "shapedna", "eigenvalues", 2) == ["LA_e0", "LA_e1"]


def test_feature_csv_export(tmp_path):
    table = make_table(n_samples=2)
    p = tmp_path / "t.csv"
    save_feature_csv(p, table)
    lines = p.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["subject", "expression", "intensity", "aus"]
    assert header[4] == "LL0_e0_x"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "1+2"


def test_block_length_table():
    assert block_length("glf", "coords", 50) == 150
    assert block_length("glf", "norms", 50) == 50
    assert block_length("shapedna", "eigenvalues", 50) == 50
