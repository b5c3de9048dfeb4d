import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from facespectra import spectral
from facespectra.patches import PatchConfig, canonical_connectivity
from facespectra.spectral import (
    DegenerateGeometryError,
    SpectralBasis,
    connected_components,
    cotan_stiffness,
    eig_sym,
    graph_laplacian,
    load_basis,
    save_basis,
    shape_dna,
    symmetrize,
    voronoi_mass,
)
from facespectra.synth import rectangular_grid

from geometry_oracles import RigidTransform


def bumpy_grid_patch(n=9, amp=0.6, seed=1):
    """Small height-field mesh used as generic curved-geometry input."""
    rng = np.random.default_rng(seed)
    xy, faces = rectangular_grid(n, n, x_extent=8.0, y_extent=8.0)
    z = amp * np.sin(xy[:, 0]) * np.cos(1.3 * xy[:, 1]) + 0.1 * rng.normal(size=len(xy))
    return np.column_stack([xy, z]), faces


# ---------------------------------------------------------------------------
# graph_laplacian

def test_path_graph_matrix_exact():
    # P3 laplacian: degree diagonal, -1 on edges
    L = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    w = np.linalg.eigvalsh(L.astype(float))
    assert np.allclose(w, [0, 1, 3], atol=1e-9)


def test_single_edge_laplacian_eigenvalues():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(np.linalg.eigvalsh(L), [0, 2], atol=1e-12)


def test_graph_laplacian_from_faces_triangle():
    L = graph_laplacian(np.array([[0, 1, 2]]), 3)
    assert np.array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    w = np.linalg.eigvalsh(L.astype(float))
    assert np.allclose(w, [0, 3, 3], atol=1e-9)


def test_graph_laplacian_rows_sum_zero_exactly():
    cfg = PatchConfig(5, 20, 5, 12)
    L = graph_laplacian(canonical_connectivity(cfg), cfg.n_vertices)
    assert L.dtype == np.int64
    assert (L.sum(axis=1) == 0).all()


def test_graph_laplacian_psd_and_kernel_multiplicity():
    cfg = PatchConfig(5, 20, 3, 8)
    L1 = graph_laplacian(canonical_connectivity(cfg), cfg.n_vertices)
    w1 = np.linalg.eigvalsh(L1.astype(float))
    assert w1.min() >= -1e-10
    assert (np.abs(w1) < 1e-9).sum() == 1
    # two disjoint triangles -> two zero modes
    L2 = graph_laplacian(np.array([[0, 1, 2], [3, 4, 5]]), 6)
    w2 = np.linalg.eigvalsh(L2.astype(float))
    assert (np.abs(w2) < 1e-9).sum() == 2


def test_graph_laplacian_depends_only_on_connectivity():
    cfg = PatchConfig(5, 20, 4, 10)
    other = PatchConfig(1, 3, 4, 10)
    a = graph_laplacian(canonical_connectivity(cfg), cfg.n_vertices)
    b = graph_laplacian(canonical_connectivity(other), other.n_vertices)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# cotan_stiffness

def test_cotan_square_diagonal_weight_zero():
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    S = cotan_stiffness(verts, faces)
    # the diagonal edge (0, 2) is opposite two right angles
    assert S[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert S[2, 0] == pytest.approx(0.0, abs=1e-12)


def test_cotan_equilateral_boundary_weights():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
    S = cotan_stiffness(verts, np.array([[0, 1, 2]]))
    w = 1.0 / math.sqrt(3)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        assert S[i, j] == pytest.approx(-w, rel=1e-12)
    assert np.allclose(np.diag(S), 2 * w, rtol=1e-12)


def test_cotan_rows_sum_zero():
    verts, faces = bumpy_grid_patch()
    S = cotan_stiffness(verts, faces)
    assert np.abs(S.sum(axis=1)).max() <= 1e-9 * np.abs(S).max()
    assert np.array_equal(S, S.T)


def test_cotan_symmetric_on_edge_shared_by_three_faces():
    # edge (0, 1) is shared by 3 faces, one of them listing it as (1, 0)
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.3, 0.9, 0.1], [0.6, -0.8, 0.2],
                      [0.45, 0.1, 1.1]])
    S = cotan_stiffness(verts, np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]]))
    assert np.array_equal(S, S.T)


def test_cotan_zero_area_face_raises():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    with pytest.raises(DegenerateGeometryError, match="face 0"):
        cotan_stiffness(verts, np.array([[0, 1, 2]]))


def test_cotan_rigid_motion_invariance():
    verts, faces = bumpy_grid_patch()
    rng = np.random.default_rng(3)
    t = RigidTransform.random(rng, max_translation=7.0)
    S0 = cotan_stiffness(verts, faces)
    S1 = cotan_stiffness(t.apply(verts), faces)
    assert np.abs(S0 - S1).max() <= 1e-9 * np.abs(S0).max()


# ---------------------------------------------------------------------------
# voronoi_mass

def test_voronoi_equilateral_splits_evenly():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
    B = voronoi_mass(verts, np.array([[0, 1, 2]]))
    area = math.sqrt(3) / 4
    assert np.allclose(B, area / 3, rtol=1e-12)


def test_voronoi_right_triangle_obtuse_rule():
    # right angle at vertex 0
    verts = np.array([[0, 0, 0], [3, 0, 0], [0, 4, 0]], dtype=float)
    B = voronoi_mass(verts, np.array([[0, 1, 2]]))
    area = 6.0
    assert B[0] == pytest.approx(area / 2, rel=1e-12)
    assert B[1] == pytest.approx(area / 4, rel=1e-12)
    assert B[2] == pytest.approx(area / 4, rel=1e-12)


def test_voronoi_masses_partition_total_area():
    verts, faces = bumpy_grid_patch(n=10, amp=1.0, seed=5)
    B = voronoi_mass(verts, faces)
    tri = verts[faces]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    assert B.sum() == pytest.approx(areas.sum(), rel=1e-9)
    assert (B > 0).all()


def test_voronoi_rigid_motion_invariance():
    verts, faces = bumpy_grid_patch(seed=8)
    rng = np.random.default_rng(13)
    t = RigidTransform.random(rng, max_translation=3.0)
    B0 = voronoi_mass(verts, faces)
    B1 = voronoi_mass(t.apply(verts), faces)
    assert np.abs(B0 - B1).max() <= 1e-9 * B0.max()


# ---------------------------------------------------------------------------
# symmetrize

def test_symmetrize_identity_mass_is_noop():
    S = np.array([[1.0, -1.0], [-1.0, 1.0]])
    O = symmetrize(S, np.ones(2))
    assert np.array_equal(O, S)


def test_symmetrize_2x2_hand_case():
    S = np.array([[1.0, -1.0], [-1.0, 1.0]])
    O = symmetrize(S, np.array([4.0, 1.0]))
    assert np.allclose(O, [[0.25, -0.5], [-0.5, 1.0]], atol=1e-15)


def test_symmetrize_rejects_nonpositive_mass():
    with pytest.raises(DegenerateGeometryError, match="positive"):
        symmetrize(np.eye(2), np.array([1.0, 0.0]))


def test_symmetrized_eigenvalues_match_generalized_problem():
    verts = np.array([[0, 0, 0], [2, 0, 0], [2.2, 1.9, 0.3],
                      [0.4, 2.1, -0.2], [1.0, 1.0, 0.8]])
    faces = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    S = cotan_stiffness(verts, faces)
    B = voronoi_mass(verts, faces)
    O = symmetrize(S, B)
    assert np.array_equal(O, O.T)
    w = np.linalg.eigvalsh(O)
    w_oracle = scipy.linalg.eigh(S, np.diag(B), eigvals_only=True)
    assert np.allclose(w, w_oracle, atol=1e-8 * max(1, np.abs(w).max()))


# ---------------------------------------------------------------------------
# eig_sym

def test_eig_sym_path_graph_p3():
    L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    basis = eig_sym(L, 3)
    assert np.allclose(basis.eigenvalues, [0, 1, 3], atol=1e-9)


def test_eig_sym_constant_kernel_vector():
    cfg = PatchConfig(5, 20, 3, 9)
    L = graph_laplacian(canonical_connectivity(cfg), cfg.n_vertices)
    basis = eig_sym(L, 4)
    n = cfg.n_vertices
    assert abs(basis.eigenvalues[0]) < 1e-9
    assert np.abs(basis.eigenvectors[:, 0] - 1.0 / math.sqrt(n)).max() < 1e-8


def test_eig_sym_cycle_c4():
    L = np.array([[2.0, -1.0, 0.0, -1.0],
                  [-1.0, 2.0, -1.0, 0.0],
                  [0.0, -1.0, 2.0, -1.0],
                  [-1.0, 0.0, -1.0, 2.0]])
    basis = eig_sym(L, 4)
    oracle = sorted(2 - 2 * math.cos(2 * math.pi * j / 4) for j in range(4))
    assert np.allclose(basis.eigenvalues, oracle, atol=1e-9)


def test_eig_sym_residual_and_orthonormality():
    verts, faces = bumpy_grid_patch(n=8)
    S = cotan_stiffness(verts, faces)
    basis = eig_sym(S, 20)
    g = basis.eigenvectors.T @ basis.eigenvectors
    assert np.abs(g - np.eye(basis.k)).max() < 1e-8
    assert basis.residual(S) <= 1e-7 * max(1.0, np.abs(basis.eigenvalues).max())


def test_eig_sym_sign_convention_deterministic():
    verts, faces = bumpy_grid_patch(n=7, seed=21)
    S = cotan_stiffness(verts, faces)
    a = eig_sym(S, 10)
    b = eig_sym(S, 10)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    idx = np.argmax(np.abs(a.eigenvectors), axis=0)
    assert (a.eigenvectors[idx, np.arange(10)] > 0).all()


def test_eig_sym_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    with pytest.raises(ValueError, match="k"):
        eig_sym(np.eye(3), 4)


# ---------------------------------------------------------------------------
# shape_dna

def test_shape_dna_drops_zero_modes():
    verts, faces = bumpy_grid_patch()
    w = shape_dna(verts, faces, 10)
    assert len(w) == 10
    assert w[0] > 1e-8
    assert (np.diff(w) >= -1e-12).all()


def test_shape_dna_scale_law():
    verts, faces = bumpy_grid_patch(seed=2)
    w0 = shape_dna(verts, faces, 12)
    for s in (0.5, 2.0, 3.7):
        ws = shape_dna(verts * s, faces, 12)
        assert np.abs(ws - w0 / s**2).max() <= 1e-6 * np.abs(w0 / s**2).max()


def test_shape_dna_rigid_motion_invariance():
    verts, faces = bumpy_grid_patch(seed=4)
    rng = np.random.default_rng(44)
    w0 = shape_dna(verts, faces, 12)
    for _ in range(3):
        t = RigidTransform.random(rng, max_translation=9.0)
        wt = shape_dna(t.apply(verts), faces, 12)
        assert np.abs(wt - w0).max() <= 1e-8 * np.abs(w0).max()


def test_shape_dna_distinguishes_flat_from_bump():
    xy, faces = rectangular_grid(9, 9, x_extent=8.0, y_extent=8.0)
    flat = np.column_stack([xy, np.zeros(len(xy))])
    bump = flat.copy()
    bump[:, 2] = 1.5 * np.exp(-(xy ** 2).sum(axis=1) / 4.0)
    w_flat = shape_dna(flat, faces, 10)
    w_bump = shape_dna(bump, faces, 10)
    assert np.abs(w_bump - w_flat).max() > 1e-3 * np.abs(w_flat).max()


def test_shape_dna_computes_corner_cotangents_once(monkeypatch):
    """``shape_dna`` hands one corner computation to both operators, and
    its eigenvalues equal those of the operators built on their own."""
    verts, faces = bumpy_grid_patch(seed=5)
    want = np.linalg.eigvalsh(symmetrize(cotan_stiffness(verts, faces),
                                         voronoi_mass(verts, faces)))
    calls = []
    original = spectral._corner_cotangents

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(spectral, "_corner_cotangents", counted)
    n_zero = connected_components(faces, len(verts))
    got = shape_dna(verts, faces, len(verts) - n_zero)
    assert len(calls) == 1
    assert got.tobytes() == want[n_zero:].tobytes()


def test_shape_dna_k_validation():
    verts, faces = bumpy_grid_patch(n=4)
    with pytest.raises(ValueError, match="k"):
        shape_dna(verts, faces, 16)  # only 15 non-zero modes exist
    # k is checked before the operator is assembled from degenerate faces
    with pytest.raises(ValueError, match="k must be"):
        shape_dna(np.zeros_like(verts), faces, 16)


def test_connected_components_counts():
    assert connected_components(np.array([[0, 1, 2]]), 3) == 1
    assert connected_components(np.array([[0, 1, 2], [3, 4, 5]]), 6) == 2
    assert connected_components(np.array([[0, 1, 2]]), 4) == 2  # isolated vertex
    assert connected_components(np.zeros((0, 3), dtype=np.int64), 3) == 3


def union_find_components(faces, n):
    """Oracle: per-face union-find with path halving."""
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for tri in np.asarray(faces, dtype=np.int64).reshape(-1, 3):
        a = find(tri[0])
        for x in tri[1:]:
            b = find(x)
            if a != b:
                parent[b] = a
    return len({find(i) for i in range(n)})


@st.composite
def face_sets(draw):
    """Random triangles over few vertices, so edges repeat and some
    vertices stay isolated."""
    n = draw(st.integers(3, 30))
    tri = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    return draw(st.lists(tri, max_size=40)), n


@settings(max_examples=300, deadline=None)
@given(face_sets())
def test_connected_components_matches_union_find(case):
    faces, n = case
    faces = np.array(faces, dtype=np.int64).reshape(-1, 3)
    assert connected_components(faces, n) == union_find_components(faces, n)


def test_connected_components_permuted_strip():
    rng = np.random.default_rng(12)
    top = np.arange(2500)
    bottom = top + 2500
    faces = np.vstack([np.column_stack([top[:-1], bottom[:-1], top[1:]]),
                       np.column_stack([top[1:], bottom[:-1], bottom[1:]])])
    # the two faces between columns 1249 and 1250 join the strip's halves
    for drop, count in ((None, 1), ([1249, 3748], 2)):
        kept = np.delete(faces, drop, axis=0) if drop else faces
        kept = rng.permutation(5000)[kept][rng.permutation(len(kept))]
        assert connected_components(kept, 5000) == count


# ---------------------------------------------------------------------------
# basis persistence

def test_basis_save_load_roundtrip(tmp_path):
    cfg = PatchConfig(5, 20, 3, 8)
    L = graph_laplacian(canonical_connectivity(cfg), cfg.n_vertices)
    basis = eig_sym(L, 10, config_hash=cfg.connectivity_hash())
    save_basis(tmp_path / "b", basis)
    back = load_basis(tmp_path / "b", expected_hash=cfg.connectivity_hash())
    assert back.config_hash == basis.config_hash
    assert np.array_equal(back.eigenvalues, basis.eigenvalues)
    assert np.array_equal(back.eigenvectors, basis.eigenvectors)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json", "b.npy"]


def test_basis_refuses_mismatched_hash(tmp_path):
    cfg = PatchConfig(5, 20, 3, 8)
    other = PatchConfig(5, 20, 4, 8)
    L = graph_laplacian(canonical_connectivity(cfg), cfg.n_vertices)
    basis = eig_sym(L, 5, config_hash=cfg.connectivity_hash())
    save_basis(tmp_path / "b", basis)
    with pytest.raises(ValueError, match="hash"):
        load_basis(tmp_path / "b", expected_hash=other.connectivity_hash())


def test_basis_file_bit_identical_rerun(tmp_path):
    cfg = PatchConfig(5, 20, 4, 9)
    L = graph_laplacian(canonical_connectivity(cfg), cfg.n_vertices)
    save_basis(tmp_path / "a", eig_sym(L, 12, config_hash=cfg.connectivity_hash()))
    save_basis(tmp_path / "b", eig_sym(L, 12, config_hash=cfg.connectivity_hash()))
    for suffix in (".npy", ".json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def _saved_basis_npy(tmp_path):
    cfg = PatchConfig(5, 20, 3, 8)
    L = graph_laplacian(canonical_connectivity(cfg), cfg.n_vertices)
    save_basis(tmp_path / "b", eig_sym(L, 10, config_hash=cfg.connectivity_hash()))
    return tmp_path / "b.npy"


def test_load_basis_names_truncated_header(tmp_path):
    p = _saved_basis_npy(tmp_path)
    p.write_bytes(p.read_bytes()[:10])
    with pytest.raises(ValueError, match="header") as exc:
        load_basis(tmp_path / "b")
    assert str(exc.value).startswith(f"{p}: ")


def test_load_basis_names_truncated_body(tmp_path):
    p = _saved_basis_npy(tmp_path)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ValueError, match="Failed to read all data") as exc:
        load_basis(tmp_path / "b")
    assert str(exc.value).startswith(f"{p}: ")


def test_load_basis_names_pair_that_disagrees_in_k(tmp_path):
    p = _saved_basis_npy(tmp_path)
    sidecar = tmp_path / "b.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "eigenvalues": meta["eigenvalues"][:-1]}))
    with pytest.raises(ValueError, match="does not match 9 eigenvalues") as exc:
        load_basis(tmp_path / "b")
    assert str(exc.value).startswith(f"{p}: ")


def test_spectral_basis_requires_ascending_eigenvalues():
    with pytest.raises(ValueError, match="ascending"):
        SpectralBasis(np.array([1.0, 0.5]), np.eye(2))
