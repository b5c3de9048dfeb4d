"""Test oracles for level-curve extraction: one-landmark entries to the
batched tracer, the whole-mesh crop and tracing set-up that
``mesh.Neighbourhood`` must reproduce exactly, and the
per-level reference tracer (a Python walk of each level's crossing graph,
on each landmark's own renumbered crop, then winding, start, resampling and
alignment one ring at a time) that the array pass of ``patches`` must
reproduce bit for bit."""

import numpy as np

from facespectra import patches
from facespectra.mesh import Neighbourhood, TriangleMesh, distance_field


def _raise_first(errors):
    if errors[0] is not None:
        raise errors[0]


def level_curves(mesh: TriangleMesh, center, levels, label):
    """``patches._level_curves`` for one landmark: ``(normal, (curves,
    counts))``, or the landmark's error raised."""
    center = np.asarray(center, dtype=np.float64).reshape(1, 3)
    near = [Neighbourhood(mesh, max(levels)).faces_within(center[0])]
    normals, curves, counts, errors = patches._level_curves(mesh, near, center, [label],
                                                            np.asarray(levels, dtype=float))
    _raise_first(errors)
    return normals[0], (curves, counts)


def extract_level_curve(mesh: TriangleMesh, r, level: float, label: str = "") -> np.ndarray:
    """Extract the closed iso-contour of the Euclidean distance field around
    ``r`` at radius ``level``, as a ``(P, 3)`` polyline of edge-crossing
    points (P >= 3, closing segment implied) ordered counterclockwise about
    the outward apex normal.

    Crossed edges are found from the sign structure of the per-vertex
    field (marching triangles); the crossing position on each edge solves
    the exact distance equation, so every returned point is at distance
    ``level`` up to floating-point error.
    """
    if level <= 0:
        raise ValueError(f"level must be positive, got {level}")
    curves, counts = level_curves(mesh, r, [level], label)[1]
    return curves[:counts[0]]


def whole_mesh_crop(mesh: TriangleMesh, r, radius: float) -> np.ndarray:
    """Ascending ids of the faces whose smallest corner distance to ``r``
    is below ``radius``, from the distance field over every vertex."""
    fv = distance_field(mesh, r)[mesh.faces]
    face_min = np.minimum(np.minimum(fv[:, 0], fv[:, 1]), fv[:, 2])
    return np.flatnonzero(face_min < radius)


def whole_mesh_level_curves(mesh: TriangleMesh, center, levels, label):
    """:func:`level_curves` on the whole-mesh crop of one landmark: the
    distance field covers the whole mesh and is read at the crop's
    corners."""
    context = f" (landmark {label!r})" if label else ""
    center = np.asarray(center, dtype=np.float64).reshape(3)
    near = whole_mesh_crop(mesh, center, max(levels))
    if not near.size:
        raise patches.CurveExtractionError(
            f"iso-level {float(levels[0])} has no crossings{context}")
    crop = TriangleMesh(mesh.vertices, mesh.faces[near])
    fv = distance_field(mesh, center)[crop.faces]
    normal = patches.apex_normal(mesh.vertices, crop.faces, fv)
    curves, counts, errors = patches._enclosing_loops(
        mesh.vertices, crop.faces, np.zeros(near.size, dtype=np.int64), fv, center[None],
        levels, patches._plane_basis(normal[None]), [context])
    _raise_first(errors)
    return normal, (curves, counts)


def whole_mesh_extract_patches(mesh: TriangleMesh, landmarks, cfg: patches.PatchConfig,
                               align: str = "none"):
    """``patches.extract_patches`` with each landmark traced alone on its
    whole-mesh crop (:func:`whole_mesh_level_curves`) and assembled alone."""
    out = np.zeros((len(landmarks), cfg.n_vertices, 3))
    missing = np.zeros(len(landmarks), dtype=bool)
    errors = {}
    for i, (label, pos) in enumerate(landmarks.items()):
        try:
            normal, (curves, counts) = whole_mesh_level_curves(mesh, pos, cfg.levels(), label)
        except patches.CurveExtractionError as exc:
            missing[i] = True
            errors[label] = str(exc)
            continue
        out[i] = patches._assemble(curves, counts, pos[None], normal[None],
                                   np.array([1.0, 0.0, 0.0]), cfg.samples_per_curve, align)[0]
    return out, missing, errors


# ---------------------------------------------------------------------------
# Reference tracer: one Python walk, winding and alignment per level

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


def reference_enclosing_loops(mesh, field, face_min, face_max, center, levels, frame,
                              context):
    """Yield, for each of ``levels`` in turn, the closed iso-contour of
    ``field`` that winds around ``center``, as a ``(P, 3)`` array of
    edge-crossing points ordered counterclockwise about the frame normal
    (P >= 3).  The crossed edges of all levels are found, numbered and
    solved in one pass; a level that fails raises when its turn comes."""
    levels = np.asarray(levels, dtype=np.float64)
    n_verts = mesh.n_vertices
    span = n_verts * n_verts
    crossed = np.flatnonzero((face_min < levels[:, None]) & (face_max >= levels[:, None]))
    lev, fi = np.divmod(crossed, face_min.size)
    n_mixed = np.bincount(lev, minlength=levels.size)
    fr = mesh.faces[fi]
    ir = field[fr] < levels[lev, None]
    xmask = ir != ir[:, [1, 2, 0]]
    v = fr[:, [1, 2, 0]]
    keys = lev[:, None] * span + np.minimum(fr, v) * n_verts + np.maximum(fr, v)
    uniq, inverse = np.unique(keys[xmask], return_inverse=True)
    bounds = np.searchsorted(uniq, np.arange(levels.size + 1) * span).tolist()
    edges = uniq % span
    pts = patches._edge_crossing_points(mesh.vertices,
                                        np.stack([edges // n_verts, edges % n_verts], axis=1),
                                        center, levels[uniq // span])
    first, second, deg = _neighbours(inverse.reshape(-1, 2), uniq.size)
    first, second = first.tolist(), second.tolist()
    for i, level in enumerate(levels.tolist()):
        if n_mixed[i] == 0:
            raise patches.CurveExtractionError(
                f"iso-level {level} has no crossings{context}"
            )
        lo, hi = bounds[i], bounds[i + 1]
        if hi - lo < 3:
            raise patches.CurveExtractionError(
                f"iso-level {level} crosses fewer than 3 mesh edges{context}"
            )
        if deg[lo:hi].max() > 2:
            raise patches.CurveExtractionError(
                "non-manifold iso-contour (a crossing point has degree > 2)"
            )
        loops = _trace_loops(first, second, lo, hi)
        if not loops:
            raise patches.CurveExtractionError(
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
                candidates.append((round(abs(w)), -centroid_d, loop_pts, w))
        if not candidates:
            raise patches.CurveAmbiguityError(
                f"iso-level {level}: {len(loops)} closed component(s), none encloses the landmark{context}"
            )
        candidates.sort(key=lambda c: (-c[0], c[1]))
        loop_pts, w = candidates[0][2], candidates[0][3]
        if w < 0:
            loop_pts = loop_pts[::-1]
        seg = np.linalg.norm(np.diff(np.vstack([loop_pts, loop_pts[:1]]), axis=0), axis=1)
        keep = seg > 1e-12 * level
        if not keep.all():
            loop_pts = loop_pts[keep]
            if loop_pts.shape[0] < 3:
                raise patches.CurveExtractionError(
                    f"iso-level {level} degenerates to <3 points{context}")
        yield loop_pts


def _submesh(mesh: TriangleMesh, face_ids) -> TriangleMesh:
    """The mesh of the faces ``face_ids`` and the vertices they use,
    numbered in their order in ``mesh``."""
    f = mesh.faces[face_ids]
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[f] = True
    ids = np.flatnonzero(used)
    new_id = np.empty(mesh.n_vertices, dtype=np.int64)
    new_id[ids] = np.arange(ids.size)
    return TriangleMesh(mesh.vertices[ids], new_id[f])


def reference_level_curves(mesh: TriangleMesh, center, levels, label):
    """The neighbourhood crop of ``patches._level_curves``, renumbered from
    0 and traced by :func:`reference_enclosing_loops`: ``(normal, iterator
    of loops)``."""
    context = f" (landmark {label!r})" if label else ""
    near = Neighbourhood(mesh, max(levels)).faces_within(center)
    if not near.size:
        raise patches.CurveExtractionError(
            f"iso-level {float(levels[0])} has no crossings{context}")
    crop = _submesh(mesh, near)
    field = distance_field(crop, center)
    fv = field[crop.faces]
    face_min = np.minimum(np.minimum(fv[:, 0], fv[:, 1]), fv[:, 2])
    face_max = np.maximum(np.maximum(fv[:, 0], fv[:, 1]), fv[:, 2])
    normal = patches.apex_normal(crop.vertices, crop.faces, fv)
    frame = patches._plane_basis(normal[None])[0]
    return normal, reference_enclosing_loops(crop, field, face_min, face_max, center,
                                             levels, frame, context)


def reference_resample_uniform(curve, m: int) -> np.ndarray:
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


def reference_build_patch(mesh: TriangleMesh, landmark, cfg: patches.PatchConfig,
                          reference_axis=(1.0, 0.0, 0.0), align: str = "none") -> np.ndarray:
    """``patches.build_patch`` one level at a time: each loop is rolled to
    its canonical start, resampled and aligned to the ring before it."""
    if align not in ("none", "normal"):
        raise ValueError(f"unknown align mode {align!r}")
    label, center = landmark
    center = np.asarray(center, dtype=np.float64).reshape(3)
    axis = np.asarray(reference_axis, dtype=np.float64).reshape(3)
    normal, curves = reference_level_curves(mesh, center, cfg.levels(), label)
    rings = []
    for curve in curves:
        start = int(np.argmax((curve - center) @ axis))
        curve = np.roll(curve, -start, axis=0)
        samples = reference_resample_uniform(curve, cfg.samples_per_curve)
        if rings:
            samples = _align_to_previous(samples, rings[-1])
        rings.append(samples)
    verts = np.vstack([center[None, :]] + rings) - center
    if align == "normal":
        verts = verts @ patches._plane_basis(normal[None])[0].T
        start_dir = verts[1].copy()
        start_dir[2] = 0.0
        norm = np.linalg.norm(start_dir)
        if norm > 1e-12:
            cos_a, sin_a = start_dir[0] / norm, start_dir[1] / norm
            rot2 = np.array([[cos_a, sin_a, 0.0], [-sin_a, cos_a, 0.0], [0.0, 0.0, 1.0]])
            verts = verts @ rot2.T
    return verts
