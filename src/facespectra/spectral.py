"""Discrete Laplace operators and their spectra.

Two operators are provided: the combinatorial graph Laplacian, which
depends only on connectivity and therefore yields one shared basis for
all canonical patches, and the cotangent-weight stiffness matrix paired
with a diagonal Voronoi mass matrix, whose symmetrized eigenvalues form
the per-patch Shape-DNA signature.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import unique_edges


class DegenerateGeometryError(ValueError):
    """Zero-area face or non-positive mass entry."""


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


@dataclass(frozen=True)
class SpectralBasis:
    """Ascending eigenvalues and column-orthonormal eigenvectors of a
    symmetric operator.  The sign of each eigenvector is fixed by making
    its largest-magnitude entry positive, so bases are reproducible."""

    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (n, k)
    config_hash: int | None = None

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.eigenvalues, dtype=np.float64).reshape(-1))
        v = np.ascontiguousarray(np.asarray(self.eigenvectors, dtype=np.float64))
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)
        if v.ndim != 2 or v.shape[1] != w.shape[0]:
            raise ValueError(f"eigenvector matrix {v.shape} does not match {w.shape[0]} eigenvalues")
        if w.shape[0] > 1 and np.any(np.diff(w) < -1e-12 * max(1.0, abs(w[-1]))):
            raise ValueError("eigenvalues must be ascending")

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]

    def orthonormality_error(self) -> float:
        g = self.eigenvectors.T @ self.eigenvectors
        return float(np.abs(g - np.eye(self.k)).max())

    def residual(self, operator: np.ndarray) -> float:
        r = operator @ self.eigenvectors - self.eigenvectors * self.eigenvalues[None, :]
        return float(np.abs(r).max())


def graph_laplacian(faces: np.ndarray, n: int) -> np.ndarray:
    """Combinatorial Laplacian L = D - A of the undirected graph derived
    from ``faces``: -1 on edges, vertex degree on the diagonal.  Integer
    valued and purely connectivity-dependent."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= n):
        raise ValueError(f"face indices out of range for n={n}")
    e = unique_edges(faces)
    L = np.zeros((n, n), dtype=np.int64)
    L[e[:, 0], e[:, 1]] = -1
    L[e[:, 1], e[:, 0]] = -1
    L[np.diag_indices(n)] = -L.sum(axis=1)
    return L


def _corner_cotangents(vertices: np.ndarray, faces: np.ndarray):
    """Cotangent of each triangle corner angle plus twice the face area.

    Raises on faces with area below 1e-12 mm^2.
    """
    tri = vertices[faces]
    e0 = tri[:, 2] - tri[:, 1]  # edge opposite corner 0
    e1 = tri[:, 0] - tri[:, 2]
    e2 = tri[:, 1] - tri[:, 0]
    cross = np.cross(e1, -e2)
    double_area = np.linalg.norm(cross, axis=1)
    bad = double_area < 2e-12
    if bad.any():
        raise DegenerateGeometryError(
            f"face {int(np.nonzero(bad)[0][0])} has area below 1e-12 mm^2"
        )
    # cot at corner c = (u . v) / |u x v| with u, v the edges leaving c
    cots = np.empty((faces.shape[0], 3), dtype=np.float64)
    cots[:, 0] = np.einsum("ij,ij->i", -e1, e2) / double_area
    cots[:, 1] = np.einsum("ij,ij->i", -e2, e0) / double_area
    cots[:, 2] = np.einsum("ij,ij->i", -e0, e1) / double_area
    return cots, double_area


def cotan_stiffness(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Cotangent-weight stiffness matrix.

    Off-diagonals are -(cot a + cot b) over the angles opposite each edge;
    boundary edges contribute a single cotangent (natural boundary).
    Diagonals are the negated row sums, so every row sums to zero.
    Negative weights from obtuse triangles are kept as-is.
    """
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    n = vertices.shape[0]
    cots, _ = _corner_cotangents(vertices, faces)
    W = np.zeros((n, n), dtype=np.float64)
    # corner c faces the edge joining the other two corners
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.add.at(W, (faces[:, i], faces[:, j]), cots[:, c])
        np.add.at(W, (faces[:, j], faces[:, i]), cots[:, c])
    S = np.diag(W.sum(axis=1)) - W
    return S


def voronoi_mass(vertices: np.ndarray, faces: np.ndarray,
                 lumping: str = "mixed") -> np.ndarray:
    """Diagonal mass entries (mm^2) per vertex.

    ``mixed``: circumcentric Voronoi areas for non-obtuse triangles; a
    triangle with an angle >= 90 deg instead contributes area/2 at that
    corner and area/4 at the others.  ``barycentric``: area/3 per corner
    (available for sensitivity checks).  Either way the entries sum to
    the total surface area exactly.
    """
    if lumping not in ("mixed", "barycentric"):
        raise ValueError(f"unknown lumping {lumping!r}")
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    n = vertices.shape[0]
    cots, double_area = _corner_cotangents(vertices, faces)
    area = 0.5 * double_area
    B = np.zeros(n, dtype=np.float64)
    if lumping == "barycentric":
        for c in range(3):
            np.add.at(B, faces[:, c], area / 3.0)
        return B
    tri = vertices[faces]
    # squared edge lengths; edge s is opposite corner s
    sq = np.empty((faces.shape[0], 3), dtype=np.float64)
    sq[:, 0] = np.einsum("ij,ij->i", tri[:, 2] - tri[:, 1], tri[:, 2] - tri[:, 1])
    sq[:, 1] = np.einsum("ij,ij->i", tri[:, 0] - tri[:, 2], tri[:, 0] - tri[:, 2])
    sq[:, 2] = np.einsum("ij,ij->i", tri[:, 1] - tri[:, 0], tri[:, 1] - tri[:, 0])
    obtuse_corner = np.argmin(cots, axis=1)
    is_non_acute = cots[np.arange(faces.shape[0]), obtuse_corner] <= 0.0
    # circumcentric contribution at corner c: (|e_a|^2 cot_a + |e_b|^2 cot_b)/8
    contrib = np.empty((faces.shape[0], 3), dtype=np.float64)
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        contrib[:, c] = (sq[:, a] * cots[:, a] + sq[:, b] * cots[:, b]) / 8.0
    rows = np.nonzero(is_non_acute)[0]
    if rows.size:
        contrib[rows] = area[rows, None] / 4.0
        contrib[rows, obtuse_corner[rows]] = area[rows] / 2.0
    for c in range(3):
        np.add.at(B, faces[:, c], contrib[:, c])
    return B


def symmetrize(S: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """O = B^{-1/2} S B^{-1/2} with B the diagonal mass matrix.  O is
    symmetric and shares its eigenvalues with B^{-1} S."""
    mass = np.asarray(mass, dtype=np.float64).reshape(-1)
    if np.any(mass <= 0):
        bad = int(np.nonzero(mass <= 0)[0][0])
        raise DegenerateGeometryError(f"mass entry {bad} is not positive ({mass[bad]})")
    inv_sqrt = 1.0 / np.sqrt(mass)
    O = S * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (O + O.T)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs[None, :]


def eig_sym(A: np.ndarray, k: int, config_hash: int | None = None) -> SpectralBasis:
    """k smallest eigenpairs of a symmetric matrix, ascending.

    Dense solve (LAPACK tridiagonalization + implicit QR via
    ``numpy.linalg.eigh``); patch operators are small enough (n = 751 at
    the default configuration) that a one-off dense decomposition is
    cheap.  Deterministic up to the documented sign convention.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"operator must be square, got {A.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    sym_err = np.abs(A - A.T).max()
    scale = max(np.abs(A).max(), 1e-300)
    if sym_err > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {sym_err:.3e})")
    try:
        w, v = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    basis = SpectralBasis(w[:k], _fix_signs(v[:, :k]), config_hash=config_hash)
    res = basis.residual(A)
    tol = 1e-7 * max(1.0, float(np.abs(w).max()))
    if res > tol:
        raise EigenConvergenceError(
            f"eigen residual {res:.3e} exceeds tolerance {tol:.3e}"
        )
    return basis


def connected_components(faces: np.ndarray, n: int) -> int:
    """Number of connected components of the vertex graph derived from faces."""
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    for tri in faces:
        a = find(tri[0])
        for x in tri[1:]:
            b = find(x)
            if a != b:
                parent[b] = a
    roots = {find(i) for i in range(n)}
    return len(roots)


def shape_dna(vertices, faces: np.ndarray, k: int,
              lumping: str = "mixed") -> np.ndarray:
    """Shape-DNA signature: the k smallest non-zero eigenvalues of the
    symmetrized cotangent operator, ascending.

    ``vertices`` is an (n, 3) array.  One zero mode per connected
    component (the constant function) carries no shape information and is
    dropped before truncation.  The signature is invariant under rigid
    motion and scales as 1/s^2 when the patch is scaled by s.
    """
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    n = vertices.shape[0]
    S = cotan_stiffness(vertices, faces)
    B = voronoi_mass(vertices, faces, lumping=lumping)
    O = symmetrize(S, B)
    n_zero = connected_components(faces, n)
    if not 1 <= k <= n - n_zero:
        raise ValueError(f"k must be in [1, {n - n_zero}] after dropping "
                         f"{n_zero} zero mode(s), got {k}")
    try:
        w = np.linalg.eigvalsh(O)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return w[n_zero:n_zero + k]


# ---------------------------------------------------------------------------
# Basis persistence

_BASIS_MAGIC = b"FSPB"
_BASIS_VERSION = 1


def save_basis(path, basis: SpectralBasis) -> None:
    """Binary layout: magic, version, n, k, connectivity hash, then the
    row-major eigenvector block and the eigenvalue block (float64 LE)."""
    if basis.config_hash is None:
        raise ValueError("basis must carry a connectivity hash to be persisted")
    path = Path(path)
    header = _BASIS_MAGIC + struct.pack("<IQQQ", _BASIS_VERSION, basis.n, basis.k,
                                        basis.config_hash)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(basis.eigenvectors, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(basis.eigenvalues, dtype="<f8").tobytes())


def load_basis(path, expected_hash: int | None = None) -> SpectralBasis:
    """Load a persisted basis; refuses to load against a mismatched
    connectivity hash."""
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != _BASIS_MAGIC:
        raise ValueError(f"{path}: not a spectral basis file")
    off = 4 + struct.calcsize("<IQQQ")
    if len(data) < off:
        raise ValueError(f"{path}: truncated basis file ({len(data)} of at least {off} bytes)")
    version, n, k, chash = struct.unpack_from("<IQQQ", data, 4)
    if version != _BASIS_VERSION:
        raise ValueError(f"{path}: unsupported basis file version {version}")
    if expected_hash is not None and chash != expected_hash:
        raise ValueError(
            f"{path}: basis connectivity hash {chash:#x} does not match the "
            f"requested patch configuration ({expected_hash:#x})"
        )
    need = off + 8 * (n + 1) * k
    if len(data) < need:
        raise ValueError(f"{path}: truncated basis file ({len(data)} of {need} bytes)")
    v = np.frombuffer(data, dtype="<f8", count=n * k, offset=off).reshape(n, k).copy()
    off += 8 * n * k
    w = np.frombuffer(data, dtype="<f8", count=k, offset=off).copy()
    return SpectralBasis(w, v, config_hash=chash)
