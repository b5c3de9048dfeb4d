import numpy as np
import pytest

from facespectra.data import load_manifest
from facespectra.mesh import TriangleMesh
from facespectra.patches import PatchConfig
from facespectra.pipeline import compute_basis, compute_feature_tables
from facespectra.synth import SynthConfig, rectangular_grid, synth_generate


def make_grid_mesh(nx, ny, spacing=1.0, height=None) -> TriangleMesh:
    """Planar (or height-field) grid mesh with unit-ish spacing."""
    xy, faces = rectangular_grid(nx, ny, x_extent=(nx - 1) * spacing,
                                 y_extent=(ny - 1) * spacing)
    z = np.zeros(len(xy)) if height is None else height(xy[:, 0], xy[:, 1])
    return TriangleMesh(np.column_stack([xy, z]), faces)


def make_uv_sphere(radius, n_theta=48, n_phi=96) -> TriangleMesh:
    """UV sphere with pole vertices (north pole is vertex 0)."""
    verts = [(0.0, 0.0, radius)]
    for i in range(1, n_theta):
        theta = np.pi * i / n_theta
        for j in range(n_phi):
            phi = 2 * np.pi * j / n_phi
            verts.append((radius * np.sin(theta) * np.cos(phi),
                          radius * np.sin(theta) * np.sin(phi),
                          radius * np.cos(theta)))
    verts.append((0.0, 0.0, -radius))
    south = len(verts) - 1
    faces = []
    ring = lambda i, j: 1 + (i - 1) * n_phi + (j % n_phi)
    for j in range(n_phi):
        faces.append((0, ring(1, j), ring(1, j + 1)))
    for i in range(1, n_theta - 1):
        for j in range(n_phi):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces.append((a, c, d))
            faces.append((a, d, b))
    for j in range(n_phi):
        faces.append((south, ring(n_theta - 1, j + 1), ring(n_theta - 1, j)))
    return TriangleMesh(np.array(verts), np.array(faces))


TINY_PATCH_CFG = PatchConfig(lambda_min=6.0, lambda_max=14.0, n_curves=4,
                             samples_per_curve=12)


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_synth")
    cfg = SynthConfig(subjects=3, resolution=48, seed=7)
    synth_generate(cfg, out)
    return out


@pytest.fixture(scope="session")
def tiny_manifest(tiny_dataset_dir):
    return load_manifest(tiny_dataset_dir / "manifest.csv")


@pytest.fixture(scope="session")
def tiny_basis():
    return compute_basis(TINY_PATCH_CFG, 30)


@pytest.fixture(scope="session")
def tiny_tables(tiny_manifest, tiny_basis):
    tables, errors = compute_feature_tables(
        tiny_manifest, TINY_PATCH_CFG,
        [("glf", "coords", 20), ("shapedna", "eigenvalues", 20)],
        basis=tiny_basis,
    )
    assert errors == []
    return {"glf": tables[0], "shapedna": tables[1]}
