"""Level-curve extraction and canonical patch assembly.

A patch is the local surface disk around one landmark, represented by a
fixed number of concentric level curves (points at equal Euclidean
distance from the landmark), each resampled to a fixed point count.  All
patches therefore share one vertex layout and one implied connectivity,
which is what makes a single shared spectral basis possible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import TriangleMesh, LandmarkSet, distance_field, nearest_vertex


class CurveExtractionError(RuntimeError):
    """Iso-contour extraction failed (level absent, open, or non-manifold)."""


class CurveAmbiguityError(CurveExtractionError):
    """Multiple iso-contour components exist but none encloses the landmark."""


@dataclass(frozen=True)
class PatchConfig:
    """Patch geometry parameters.

    ``lambda_min``/``lambda_max`` bound the curve radii in mm, ``n_curves``
    is the number of level curves per patch and ``samples_per_curve`` the
    uniform resampling count.  The resampling count is an artifact choice
    (50 keeps the shared basis at 751x751, cheap to decompose once).
    """

    lambda_min: float = 5.0
    lambda_max: float = 20.0
    n_curves: int = 15
    samples_per_curve: int = 50

    def __post_init__(self):
        if not (0 < self.lambda_min < self.lambda_max):
            raise ValueError(
                f"need 0 < lambda_min < lambda_max, got ({self.lambda_min}, {self.lambda_max})"
            )
        if self.n_curves < 2:
            raise ValueError(f"n_curves must be >= 2, got {self.n_curves}")
        if self.samples_per_curve < 3:
            raise ValueError(f"samples_per_curve must be >= 3, got {self.samples_per_curve}")

    @property
    def n_vertices(self) -> int:
        """Patch vertex count: 1 apex + n_curves * samples_per_curve."""
        return 1 + self.n_curves * self.samples_per_curve

    def levels(self) -> np.ndarray:
        """Curve radii, evenly spaced over [lambda_min, lambda_max]."""
        return np.linspace(self.lambda_min, self.lambda_max, self.n_curves)

    def connectivity_hash(self) -> int:
        """Stable 64-bit hash of (n_curves, samples_per_curve).

        The shared basis depends only on connectivity, so only these two
        fields participate.
        """
        key = f"K={self.n_curves},m={self.samples_per_curve}".encode()
        return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")

    def to_dict(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "n_curves": self.n_curves,
            "samples_per_curve": self.samples_per_curve,
        }

    @staticmethod
    def from_dict(d: dict) -> "PatchConfig":
        return PatchConfig(
            lambda_min=float(d["lambda_min"]),
            lambda_max=float(d["lambda_max"]),
            n_curves=int(d["n_curves"]),
            samples_per_curve=int(d["samples_per_curve"]),
        )


def canonical_connectivity(cfg: PatchConfig) -> np.ndarray:
    """Shared face list for the canonical patch layout.

    Apex fan of m triangles to curve 0, then a closed quad strip of 2m
    triangles between consecutive curves, every quad split along the same
    diagonal.  Depends only on (n_curves, samples_per_curve).
    """
    K, m = cfg.n_curves, cfg.samples_per_curve
    faces = np.empty((m + 2 * m * (K - 1), 3), dtype=np.int64)
    j = np.arange(m)
    j2 = (j + 1) % m
    faces[:m, 0] = 0
    faces[:m, 1] = 1 + j
    faces[:m, 2] = 1 + j2
    row = m
    for k in range(K - 1):
        base = 1 + k * m
        nxt = base + m
        faces[row:row + m] = np.stack([base + j, base + j2, nxt + j], axis=1)
        faces[row + m:row + 2 * m] = np.stack([base + j2, nxt + j2, nxt + j], axis=1)
        row += 2 * m
    return faces


# ---------------------------------------------------------------------------
# Iso-contour extraction (marching triangles on the vertex distance field)

def _edge_crossing_points(vertices, edge_pairs, center, level):
    """Points on the given edges at exact Euclidean distance ``level`` (one
    value, or one per edge) from ``center``.  The crossed edges are
    selected from the sign structure of the per-vertex field, which
    guarantees exactly one root in [0, 1]."""
    a = vertices[edge_pairs[:, 0]]
    d = vertices[edge_pairs[:, 1]] - a
    m0 = a - center
    qa = np.einsum("ij,ij->i", d, d)
    qb = 2.0 * np.einsum("ij,ij->i", m0, d)
    qc = np.einsum("ij,ij->i", m0, m0) - level * level
    disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
    sq = np.sqrt(disc)
    t1 = (-qb - sq) / (2.0 * qa)
    t2 = (-qb + sq) / (2.0 * qa)
    use1 = (t1 >= -1e-9) & (t1 <= 1.0 + 1e-9)
    t = np.clip(np.where(use1, t1, t2), 0.0, 1.0)
    return a + t[:, None] * d


def _neighbours(segments, n_points):
    """``(first, second, deg)``: for each point, the point joined to it by
    the first and by the second of ``segments`` that contain it (-1 for
    none), and its degree.  Every point must lie on some segment."""
    ends = segments.ravel()
    other = segments[:, ::-1].ravel()
    order = np.argsort(ends, kind="stable")
    deg = np.bincount(ends, minlength=n_points)
    start = np.cumsum(deg) - deg
    first = other[order[start]]
    second = np.full(n_points, -1, dtype=np.int64)
    two = deg > 1
    second[two] = other[order[start[two] + 1]]
    return first, second, deg


def _trace_loops(first, second, lo, hi):
    """Closed loops of the points ``lo..hi-1``, walked along the neighbour
    lists ``first``/``second`` (-1 for none; no neighbour lies outside the
    range); a walk that does not close (an open chain ending at the mesh
    boundary) is dropped.

    Each crossing point lies on one mesh edge, shared by at most two
    crossed triangles, so point degrees are <= 2 on manifold regions.
    """
    visited = bytearray(hi)
    loops = []
    for start in range(lo, hi):
        if visited[start]:
            continue
        path = [start]
        visited[start] = 1
        prev, cur = -1, start
        while True:
            nxt = first[cur]
            if nxt == prev:
                nxt = second[cur]
            if nxt == -1 or visited[nxt]:
                break
            visited[nxt] = 1
            path.append(nxt)
            prev, cur = cur, nxt
        if nxt == start:
            loops.append(path)
    return loops


def _plane_basis(normal):
    """Right-handed orthonormal frame with rows ``(e1, e2, n)``: ``e1, e2``
    span the plane orthogonal to ``normal`` and ``e1 x e2 = n``.  Computed
    once per landmark since every level shares the apex normal."""
    n = np.asarray(normal, dtype=np.float64)
    n = n / np.sqrt(n @ n)
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, ref)
    e1 = e1 / np.sqrt(e1 @ e1)
    e2 = np.cross(n, e1)
    return np.array([e1, e2, n])


def _winding(points, center, frame):
    """Signed number of turns of ``points`` around ``center`` projected on
    the plane of ``frame = (e1, e2, n)`` (positive = counterclockwise
    about n)."""
    e1, e2, _ = frame
    d = points - center
    theta = np.arctan2(d @ e2, d @ e1)
    dt = np.diff(np.concatenate([theta, theta[:1]]))
    dt = (dt + np.pi) % (2.0 * np.pi) - np.pi
    return float(dt.sum() / (2.0 * np.pi))


def apex_normal(mesh: TriangleMesh, r) -> np.ndarray:
    """Outward surface normal near ``r``: area-weighted average of the face
    normals incident to the nearest vertex that some face references
    (vertices no face uses are ignored)."""
    r = np.asarray(r, dtype=np.float64).reshape(3)
    f = mesh.faces
    if f.size == 0:
        raise CurveExtractionError(f"no faces near {r.tolist()}")
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[f] = True
    used = np.flatnonzero(used)
    nearest = used[nearest_vertex(mesh.vertices[used], r)]
    tris = mesh.vertices[f[(f[:, 0] == nearest) | (f[:, 1] == nearest) | (f[:, 2] == nearest)]]
    n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]).sum(axis=0)
    norm = np.linalg.norm(n)
    if not norm >= 1e-15:  # NaN from a non-finite corner is degenerate too
        raise CurveExtractionError(
            "degenerate apex normal (zero or non-finite area-weighted sum)")
    return n / norm


def _enclosing_loops(mesh, field, face_min, face_max, center, levels, frame, context):
    """Yield, for each of ``levels`` in turn, the closed iso-contour of
    ``field`` that winds around ``center``, as a ``(P, 3)`` array of
    edge-crossing points ordered counterclockwise about the frame normal
    (P >= 3).  The crossed edges of all levels are found, numbered and
    solved in one pass; a level that fails raises when its turn comes."""
    levels = np.asarray(levels, dtype=np.float64)
    n_verts = mesh.n_vertices
    span = n_verts * n_verts
    # (level, face) of every crossed face, level-major and in face order: a
    # face is crossed iff its vertex values straddle the level
    crossed = np.flatnonzero((face_min < levels[:, None]) & (face_max >= levels[:, None]))
    lev, fi = np.divmod(crossed, face_min.size)
    n_mixed = np.bincount(lev, minlength=levels.size)
    fr = mesh.faces[fi]
    ir = field[fr] < levels[lev, None]
    # edge slot s joins face corners s and s+1; a slot is crossed iff the
    # inside flags differ, so every mixed face has exactly two crossed slots
    xmask = ir != ir[:, [1, 2, 0]]
    bad = np.count_nonzero(xmask, axis=1) != 2
    if bad.any():
        raise CurveExtractionError(
            f"iso-level {levels[lev[bad][0]]}: inconsistent crossing structure{context}"
        )
    v = fr[:, [1, 2, 0]]
    # an edge key within a level, tagged with the level index
    keys = lev[:, None] * span + np.minimum(fr, v) * n_verts + np.maximum(fr, v)
    uniq, inverse = np.unique(keys[xmask], return_inverse=True)
    bounds = np.searchsorted(uniq, np.arange(levels.size + 1) * span).tolist()
    edges = uniq % span
    pts = _edge_crossing_points(mesh.vertices,
                                np.stack([edges // n_verts, edges % n_verts], axis=1),
                                center, levels[uniq // span])
    first, second, deg = _neighbours(inverse.reshape(-1, 2), uniq.size)
    first, second = first.tolist(), second.tolist()
    for i, level in enumerate(levels.tolist()):
        if n_mixed[i] == 0:
            raise CurveExtractionError(
                f"iso-level {level} has no crossings{context}"
            )
        lo, hi = bounds[i], bounds[i + 1]
        if hi - lo < 3:
            raise CurveExtractionError(
                f"iso-level {level} crosses fewer than 3 mesh edges{context}"
            )
        if deg[lo:hi].max() > 2:
            raise CurveExtractionError(
                "non-manifold iso-contour (a crossing point has degree > 2)"
            )
        loops = _trace_loops(first, second, lo, hi)
        if not loops:
            raise CurveExtractionError(
                f"iso-level {level} is not closed (reaches the mesh boundary){context}"
            )
        candidates = []
        for path in loops:
            if len(path) < 3:
                continue
            loop_pts = pts[path]
            w = _winding(loop_pts, center, frame)
            if abs(w) >= 0.5:
                centroid_d = float(np.linalg.norm(loop_pts.mean(axis=0) - center))
                candidates.append((abs(w), -centroid_d, loop_pts, w))
        if not candidates:
            raise CurveAmbiguityError(
                f"iso-level {level}: {len(loops)} closed component(s), none encloses the landmark{context}"
            )
        candidates.sort(key=lambda c: (-c[0], c[1]))
        loop_pts, w = candidates[0][2], candidates[0][3]
        if w < 0:
            loop_pts = loop_pts[::-1]
        # drop consecutive duplicates (crossing exactly at a shared vertex)
        seg = np.linalg.norm(np.diff(np.vstack([loop_pts, loop_pts[:1]]), axis=0), axis=1)
        keep = seg > 1e-12 * level
        if not keep.all():
            loop_pts = loop_pts[keep]
            if loop_pts.shape[0] < 3:
                raise CurveExtractionError(f"iso-level {level} degenerates to <3 points{context}")
        yield loop_pts


def _level_curves(mesh: TriangleMesh, center, levels, label):
    """The apex normal at ``center`` and an iterator over the enclosing loop
    around it at each of ``levels``, oriented counterclockwise about that
    normal.  Only a face with a corner closer than the largest level can
    cross a level, so the normal and every loop are taken from the submesh
    of those faces, found from the mesh's neighbourhood index; the distance
    field is computed once on it for all levels."""
    context = f" (landmark {label!r})" if label else ""
    near = mesh.faces_within(center, max(levels))
    if not near.size:
        raise CurveExtractionError(f"iso-level {float(levels[0])} has no crossings{context}")
    crop = mesh.submesh(near)
    field = distance_field(crop, center)
    fv = field[crop.faces]
    face_min = np.minimum(np.minimum(fv[:, 0], fv[:, 1]), fv[:, 2])
    face_max = np.maximum(np.maximum(fv[:, 0], fv[:, 1]), fv[:, 2])
    normal = apex_normal(crop, center)
    return normal, _enclosing_loops(crop, field, face_min, face_max, center,
                                    levels, _plane_basis(normal), context)


# ---------------------------------------------------------------------------
# Resampling and patch assembly

def resample_uniform(curve, m: int) -> np.ndarray:
    """Resample a closed polyline to ``m`` points at equal arclength spacing,
    starting at the polyline's first point."""
    pts = np.asarray(curve, dtype=np.float64)
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    seg = np.empty_like(pts)
    seg[:-1] = pts[1:] - pts[:-1]
    seg[-1] = pts[0] - pts[-1]
    lens = np.sqrt(np.einsum("ij,ij->i", seg, seg))
    keep = lens > 0
    if not keep.all():
        pts = pts[keep]
        seg = seg[keep]
        lens = lens[keep]
    total = lens.sum()
    if not total > 0:
        raise ValueError("cannot resample a curve with zero arclength")
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    targets = np.arange(m) * (total / m)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(lens) - 1)
    frac = (targets - cum[idx]) / lens[idx]
    return pts[idx] + frac[:, None] * seg[idx]


def _canonical_start(points, center, axis):
    """Index of the point whose direction from the apex projects most onto
    the reference axis (deterministic argmax on ties)."""
    proj = (points - center) @ np.asarray(axis, dtype=np.float64)
    return int(np.argmax(proj))


def _align_to_previous(samples, previous):
    """Circular shift of ``samples`` minimizing the summed distance to the
    previous curve's samples (keeps consecutive rings rotationally aligned)."""
    m = samples.shape[0]
    ss = np.einsum("ij,ij->i", samples, samples)
    pp = np.einsum("ij,ij->i", previous, previous)
    d2 = ss[:, None] + pp[None, :] - 2.0 * (samples @ previous.T)
    d = np.sqrt(np.maximum(d2, 0.0))
    rows = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    cost = d[rows, np.arange(m)[None, :]].sum(axis=1)
    s = int(np.argmin(cost))
    return np.roll(samples, -s, axis=0)


def build_patch(mesh: TriangleMesh, landmark, cfg: PatchConfig,
                reference_axis=(1.0, 0.0, 0.0), align: str = "none") -> np.ndarray:
    """Extract all level curves around one landmark and assemble the
    canonical patch (apex-centered at the origin) as a ``(1 + K*m, 3)``
    array: vertex 0 is the apex, then curve k sample j at index
    ``1 + k*m + j``.  Its connectivity is :func:`canonical_connectivity`,
    identical for all patches.

    ``landmark`` is a (label, position) pair.  Curves are oriented
    counterclockwise about the outward apex normal; each curve starts at
    the crossing point with the largest projection of its apex direction
    onto ``reference_axis`` and consecutive curves are circularly shifted
    into rotational alignment.  With ``align="normal"`` the patch is also
    rotated so the apex normal maps to +z and the direction to the first
    curve's start point fixes the in-plane rotation.
    """
    if align not in ("none", "normal"):
        raise ValueError(f"unknown align mode {align!r}")
    label, center = landmark
    center = np.asarray(center, dtype=np.float64).reshape(3)
    axis = np.asarray(reference_axis, dtype=np.float64).reshape(3)
    normal, curves = _level_curves(mesh, center, cfg.levels(), label)
    rings = []
    for curve in curves:
        curve = np.roll(curve, -_canonical_start(curve, center, axis), axis=0)
        samples = resample_uniform(curve, cfg.samples_per_curve)
        if rings:
            samples = _align_to_previous(samples, rings[-1])
        rings.append(samples)
    verts = np.vstack([center[None, :]] + rings) - center
    if align == "normal":
        verts = verts @ _plane_basis(normal).T
        start_dir = verts[1].copy()
        start_dir[2] = 0.0
        norm = np.linalg.norm(start_dir)
        if norm > 1e-12:
            cos_a, sin_a = start_dir[0] / norm, start_dir[1] / norm
            rot2 = np.array([[cos_a, sin_a, 0.0], [-sin_a, cos_a, 0.0], [0.0, 0.0, 1.0]])
            verts = verts @ rot2.T
    return verts


def extract_patches(mesh: TriangleMesh, landmarks: LandmarkSet, cfg: PatchConfig,
                    align: str = "none"):
    """Build patches for every landmark of a scan.

    Returns ``(array (N, 1+K*m, 3), missing (N,) bool, errors dict)``.
    A landmark whose extraction fails is flagged missing (vertices zeroed),
    never fabricated; the error message is kept for the report.
    """
    n = len(landmarks)
    out = np.zeros((n, cfg.n_vertices, 3), dtype=np.float64)
    missing = np.zeros(n, dtype=bool)
    errors: dict = {}
    for i, (label, pos) in enumerate(landmarks.items()):
        try:
            out[i] = build_patch(mesh, (label, pos), cfg, align=align)
        except CurveExtractionError as exc:
            missing[i] = True
            errors[label] = str(exc)
    return out, missing, errors


# ---------------------------------------------------------------------------
# Patch archives: one binary file per scan + JSON sidecar

def npy_json_paths(path) -> tuple[Path, Path]:
    """``(<stem>.npy, <stem>.json)`` for a stem given with or without
    either suffix: the file pair of a patch archive or feature table."""
    path = Path(path)
    base = path.with_suffix("") if path.suffix in (".npy", ".json") else path
    return Path(f"{base}.npy"), Path(f"{base}.json")


def read_npy_json(path):
    """``(npy path, array, sidecar dict)`` of a :func:`npy_json_paths`
    pair; a file that does not parse raises ValueError naming it."""
    npy, sidecar = npy_json_paths(path)
    reading = npy
    try:
        arr = np.load(npy)
        reading = sidecar
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{reading}: {exc}") from exc
    return npy, arr, meta


def save_patch_archive(path, patches: np.ndarray, labels, missing, cfg: PatchConfig) -> None:
    """Write per-scan patches as ``<path>.npy`` plus ``<path>.json`` sidecar
    recording the patch configuration, landmark labels and missing flags."""
    npy, sidecar_path = npy_json_paths(path)
    arr = np.asarray(patches, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] != cfg.n_vertices or arr.shape[2] != 3:
        raise ValueError(f"patch array shape {arr.shape} does not match config "
                         f"(expected (N, {cfg.n_vertices}, 3))")
    np.save(npy, arr)
    sidecar = {
        "config": cfg.to_dict(),
        "labels": list(labels),
        "missing": [bool(x) for x in missing],
    }
    sidecar_path.write_text(json.dumps(sidecar, indent=1), encoding="utf-8")


def load_patch_archive(path):
    """Read a patch archive; returns (patches, labels, missing, cfg)."""
    npy, arr, sidecar = read_npy_json(path)
    cfg = PatchConfig.from_dict(sidecar["config"])
    labels = [str(x) for x in sidecar["labels"]]
    missing = np.array(sidecar["missing"], dtype=bool)
    if arr.shape != (len(labels), cfg.n_vertices, 3):
        raise ValueError(f"{npy}: archive shape {arr.shape} inconsistent with sidecar")
    return arr, labels, missing, cfg
