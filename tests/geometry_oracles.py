"""Test oracles for the geometric laws: a similarity transform for the
rigid-motion and scale laws, the nearest vertex by squared distance for
the apex normal's vertex, vertex degrees from the unique edges, and the
inverse of the GLF projection for the reconstruction law."""

from dataclasses import dataclass

import numpy as np

from facespectra.mesh import TriangleMesh, _readonly, unique_edges
from facespectra.spectral import SpectralBasis


@dataclass(frozen=True)
class RigidTransform:
    """Similarity transform: p -> scale * rotation @ p + translation."""

    rotation: np.ndarray      # (3, 3), orthonormal, det +1
    translation: np.ndarray   # (3,), mm
    scale: float = 1.0

    def __post_init__(self):
        r = _readonly(np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        t = _readonly(np.asarray(self.translation, dtype=np.float64).reshape(3))
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "scale", float(self.scale))
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation matrix is not orthonormal within 1e-9")
        if np.linalg.det(r) < 0:
            raise ValueError("rotation matrix must have determinant +1")

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * pts @ self.rotation.T + self.translation

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3), 1.0)

    @staticmethod
    def random(rng: np.random.Generator, scale: float = 1.0,
               max_translation: float = 0.0) -> "RigidTransform":
        """Uniform-ish random rotation (QR of a Gaussian matrix, det fixed)."""
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        t = rng.uniform(-max_translation, max_translation, size=3)
        return RigidTransform(q, t, scale)


def apply_transform(mesh: TriangleMesh, t: RigidTransform) -> TriangleMesh:
    """Return a new mesh with transformed vertices; connectivity unchanged."""
    return TriangleMesh(t.apply(mesh.vertices), mesh.faces)


def nearest_vertex(points: np.ndarray, r) -> int:
    """Row index of the point in ``points`` (n, 3) nearest to ``r``; the
    lowest index wins a tie."""
    d = points - np.asarray(r, dtype=np.float64).reshape(3)
    return int(np.argmin(np.einsum("ij,ij->i", d, d)))


def vertex_degrees(mesh: TriangleMesh) -> np.ndarray:
    """Number of distinct undirected edges incident to each vertex."""
    return np.bincount(unique_edges(mesh.faces).ravel(), minlength=mesh.n_vertices)


def glf_reconstruct(coeffs: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Invert ``glf_project``: rebuild (n, 3) coordinates from the
    leading coefficients (exact when all n coefficients are used)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    k = coeffs.shape[0]
    return basis.eigenvectors[:, :k] @ coeffs
