"""Discrete Laplace operators and their spectra.

Two operators are provided: the combinatorial graph Laplacian, which
depends only on connectivity and therefore yields one shared basis for
all canonical patches, and the cotangent-weight stiffness matrix paired
with a diagonal Voronoi mass matrix, whose symmetrized eigenvalues form
the per-patch Shape-DNA signature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import npy_json_paths, read_npy_json, save_npy_json
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
    """Cotangent of each triangle corner angle, twice the face area and the
    squared length of the edge opposite each corner.

    Raises on faces with area below 1e-12 mm^2.
    """
    tri = vertices[faces]
    # e[c] is the edge opposite corner c
    e = (tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2], tri[:, 1] - tri[:, 0])
    double_area = np.linalg.norm(np.cross(e[1], -e[2]), axis=1)
    bad = double_area < 2e-12
    if bad.any():
        raise DegenerateGeometryError(
            f"face {int(np.nonzero(bad)[0][0])} has area below 1e-12 mm^2"
        )
    cots = np.empty((faces.shape[0], 3), dtype=np.float64)
    sq = np.empty((faces.shape[0], 3), dtype=np.float64)
    for c in range(3):
        # cot at corner c = (u . v) / |u x v| with u, v the edges leaving c
        cots[:, c] = np.einsum("ij,ij->i", -e[(c + 1) % 3], e[(c + 2) % 3]) / double_area
        sq[:, c] = np.einsum("ij,ij->i", e[c], e[c])
    return cots, double_area, sq


def cotan_stiffness(vertices: np.ndarray, faces: np.ndarray, corners=None) -> np.ndarray:
    """Cotangent-weight stiffness matrix.

    Off-diagonals are -(cot a + cot b) over the angles opposite each edge;
    boundary edges contribute a single cotangent (natural boundary).
    Diagonals are the negated row sums, so every row sums to zero.
    Negative weights from obtuse triangles are kept as-is.  The matrix is
    exactly symmetric: entries (i, j) and (j, i) receive the same
    cotangents in the same order.  ``corners`` is
    ``_corner_cotangents(vertices, faces)`` when the caller has it.
    """
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    n = vertices.shape[0]
    cots, _, _ = _corner_cotangents(vertices, faces) if corners is None else corners
    # corner c faces the edge joining the other two corners; each face
    # lists its three half-edges and then their reverses
    rows = faces[:, [1, 2, 0, 2, 0, 1]]
    cols = faces[:, [2, 0, 1, 1, 2, 0]]
    S = np.bincount((rows * n + cols).ravel(), weights=-np.tile(cots, 2).ravel(),
                    minlength=n * n).reshape(n, n)
    S[np.diag_indices(n)] = -S.sum(axis=1)
    return S


def voronoi_mass(vertices: np.ndarray, faces: np.ndarray, corners=None) -> np.ndarray:
    """Diagonal mass entries (mm^2) per vertex: mixed Voronoi areas.

    Circumcentric Voronoi areas for non-obtuse triangles; a triangle with
    an angle >= 90 deg instead contributes area/2 at that corner and
    area/4 at the others.  The entries sum to the total surface area.
    ``corners`` is ``_corner_cotangents(vertices, faces)`` when the caller
    has it.
    """
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    n = vertices.shape[0]
    cots, double_area, sq = (_corner_cotangents(vertices, faces) if corners is None
                             else corners)
    area = 0.5 * double_area
    # circumcentric contribution at corner c: (|e_a|^2 cot_a + |e_b|^2 cot_b)/8
    contrib = np.empty((faces.shape[0], 3), dtype=np.float64)
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        contrib[:, c] = (sq[:, a] * cots[:, a] + sq[:, b] * cots[:, b]) / 8.0
    rows = np.flatnonzero(cots.min(axis=1) <= 0.0)  # an angle >= 90 deg
    contrib[rows] = area[rows, None] / 4.0
    contrib[rows, np.argmin(cots[rows], axis=1)] = area[rows] / 2.0
    # corner-major, so each vertex sums its corners in (corner, face) order
    return np.bincount(faces.ravel(order="F"), weights=contrib.ravel(order="F"),
                       minlength=n)


def symmetrize(S: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """O = B^{-1/2} S B^{-1/2} with B the diagonal mass matrix; O shares
    its eigenvalues with B^{-1} S.

    S must be symmetric (``cotan_stiffness`` guarantees it exactly); O is
    then exactly symmetric as well.
    """
    mass = np.asarray(mass, dtype=np.float64).reshape(-1)
    if np.any(mass <= 0):
        bad = int(np.nonzero(mass <= 0)[0][0])
        raise DegenerateGeometryError(f"mass entry {bad} is not positive ({mass[bad]})")
    s = 1.0 / np.sqrt(mass)
    return S * (s[:, None] * s[None, :])


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` with each column's largest-magnitude entry made positive."""
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
    basis = SpectralBasis(w[:k], fix_signs(v[:, :k]), config_hash=config_hash)
    res = basis.residual(A)
    tol = 1e-7 * max(1.0, float(np.abs(w).max()))
    if res > tol:
        raise EigenConvergenceError(
            f"eigen residual {res:.3e} exceeds tolerance {tol:.3e}"
        )
    return basis


def connected_components(faces: np.ndarray, n: int) -> int:
    """Number of connected components of the vertex graph derived from faces.

    Hook and compress: every root is hooked under the smallest root that
    shares a face with it, then pointers are jumped until each vertex
    points at its root; repeat until no face spans two roots.
    """
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    parent = np.arange(n)
    while True:
        roots = parent[faces]
        low = roots.min(axis=1)
        if (roots == low[:, None]).all():
            return int((parent == np.arange(n)).sum())
        np.minimum.at(parent, roots.ravel(), np.repeat(low, 3))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped


def shape_dna(vertices, faces: np.ndarray, k: int) -> np.ndarray:
    """Shape-DNA signature: the k smallest non-zero eigenvalues of the
    symmetrized cotangent operator, ascending.

    ``vertices`` is an (n, 3) array.  One zero mode per connected
    component (the constant function) carries no shape information and is
    dropped before truncation.  The signature is invariant under rigid
    motion and scales as 1/s^2 when the patch is scaled by s.
    """
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    n = vertices.shape[0]
    n_zero = connected_components(faces, n)
    if not 1 <= k <= n - n_zero:
        raise ValueError(f"k must be in [1, {n - n_zero}] after dropping "
                         f"{n_zero} zero mode(s), got {k}")
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    corners = _corner_cotangents(vertices, faces)
    O = symmetrize(cotan_stiffness(vertices, faces, corners),
                   voronoi_mass(vertices, faces, corners))
    try:
        w = np.linalg.eigvalsh(O)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return w[n_zero:n_zero + k]


# ---------------------------------------------------------------------------
# Basis persistence

def save_basis(path, basis: SpectralBasis) -> None:
    """Write the eigenvectors to ``<path>.npy`` and the connectivity hash
    and eigenvalues to ``<path>.json`` (JSON floats round-trip exactly)."""
    if basis.config_hash is None:
        raise ValueError("basis must carry a connectivity hash to be persisted")
    save_npy_json(path, basis.eigenvectors, {"config_hash": basis.config_hash,
                                             "eigenvalues": basis.eigenvalues.tolist()})


def load_basis(path, expected_hash: int | None = None) -> SpectralBasis:
    """Load a persisted basis; refuses to load against a mismatched
    connectivity hash."""
    npy, v, field = read_npy_json(path)
    chash = field("config_hash", int)
    if expected_hash is not None and chash != expected_hash:
        raise ValueError(
            f"{npy_json_paths(path)[1]}: basis connectivity hash {chash:#x} does not match "
            f"the requested patch configuration ({expected_hash:#x})"
        )
    w = field("eigenvalues", lambda w: [float(x) for x in w])
    try:
        return SpectralBasis(w, v, config_hash=chash)
    except ValueError as exc:
        raise ValueError(f"{npy}: {exc}") from None
