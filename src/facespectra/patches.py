"""Level-curve extraction and canonical patch assembly.

A patch is the local surface disk around one landmark, represented by a
fixed number of concentric level curves (points at equal Euclidean
distance from the landmark), each resampled to a fixed point count.  All
patches therefore share one vertex layout and one implied connectivity,
which is what makes a single shared spectral basis possible.

All levels of all landmarks of a scan are traced together, in a few array
passes over (landmark, level) rows.  Each landmark keeps its own crop of
the mesh (the faces near it, with the mesh's vertex ids), its own apex
normal and its own error; no row depends on another, so a landmark gets
the same patch, bit for bit, alone or among others:

- Marching triangles on the distance field give each row's crossing
  points (one per crossed edge) and segments (one per crossed face).
- Loops are walked on directed half-edges ``p -> q`` between crossing
  points; the successor of ``p -> q`` leaves ``q`` by its other neighbour.
  Pointer doubling finds every closed loop with its lowest point and each
  point's place in it, so a loop starts at its lowest point and steps first
  to that point's first neighbour, whatever the face orientation.  Chains
  that reach the mesh boundary are dropped.
- Each level keeps, among the loops that wind about the landmark in the
  plane orthogonal to the apex normal (absolute winding number at least
  1/2), the one with the largest winding number rounded to an integer,
  then the one whose centroid lies farthest from the landmark, then the
  first; it is reversed to run counterclockwise.
- Every ring starts at the point that projects most onto the reference
  axis and is resampled by arclength.  The best circular shift of ring k
  against ring k-1 does not depend on where ring k-1 starts, so all
  relative shifts come from batches of distance matrices and each ring's
  shift is their running sum.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import read_npy_json, save_npy_json
from .mesh import TriangleMesh, LandmarkSet, Neighbourhood, _runs, distance_field

ALIGN_MODES = ("none", "normal")


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
        if not (0 < self.lambda_min < self.lambda_max < float("inf")):
            raise ValueError(f"need 0 < lambda_min < lambda_max < inf, "
                             f"got ({self.lambda_min}, {self.lambda_max})")
        for name, least in (("n_curves", 2), ("samples_per_curve", 3)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

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
        return asdict(self)

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
    value, or one per edge) from ``center`` (one point, or one per edge).
    The crossed edges are selected from the sign structure of the
    per-vertex field, which guarantees exactly one root in [0, 1]."""
    a = np.take(vertices, edge_pairs[:, 0], axis=0)
    d = np.take(vertices, edge_pairs[:, 1], axis=0) - a
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


def _dot_rows(a, b):
    """The dot product of each row of ``a`` with the same row of ``b``, as
    a stack of 1-by-n times n-by-1 products, so each row gets the
    arithmetic of the 1-D product ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _plane_basis(normals):
    """Right-handed orthonormal frames ``(L, 3, 3)``, one per row of
    ``normals``, with rows ``(e1, e2, n)``: ``e1, e2`` span the plane
    orthogonal to ``n`` and ``e1 x e2 = n``.  Every level of a landmark
    shares its apex normal, so its frame is computed once."""
    n = np.asarray(normals, dtype=np.float64)
    n = n / np.sqrt(_dot_rows(n, n))[:, None]
    ref = np.where((np.abs(n[:, 0]) < 0.9)[:, None], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = np.cross(n, ref)
    e1 = e1 / np.sqrt(_dot_rows(e1, e1))[:, None]
    return np.stack([e1, np.cross(n, e1), n], axis=1)


def _fan_flips(fan, apex) -> list:
    """Which faces of the one-ring ``fan`` (faces that all hold vertex
    ``apex``) to flip, as row indices, so that every spoke two faces share
    is crossed in opposite directions by them, walking the ring from its
    lowest-numbered face (from the lowest unreached face, for each part of
    the ring that shares no spoke with the rest).  A one-ring has a few
    faces, so this works on Python lists."""
    apex = int(apex)
    after, before = [], []
    for face in fan.tolist():
        i = face.index(apex)
        after.append(face[(i + 1) % 3])
        before.append(face[i - 1])
    if len(set(after)) == len(after) == len(set(before)):
        return []         # no spoke is crossed twice the same way: consistent
    flip = [False] * len(after)
    seen = [False] * len(after)
    for first in range(len(after)):
        if seen[first]:
            continue
        seen[first] = True
        stack = [first]
        while stack:
            i = stack.pop()
            a, b = (before[i], after[i]) if flip[i] else (after[i], before[i])
            for j in range(len(after)):
                if seen[j]:
                    continue
                if a in (after[j], before[j]):
                    flip[j] = after[j] == a     # j must follow a, not lead to it
                elif b in (after[j], before[j]):
                    flip[j] = before[j] == b
                else:
                    continue
                seen[j] = True
                stack.append(j)
    return [j for j in range(len(flip)) if flip[j]]


def apex_normal(vertices, faces, fv) -> np.ndarray:
    """Outward surface normal of a crop, ``faces`` (ids into ``vertices``)
    whose corners lie ``fv`` from the landmark: area-weighted average of
    the face normals incident to the nearest corner (the lowest id on a
    tie, or the lowest-id NaN corner).  Faces are summed as oriented by the
    lowest-numbered incident face (:func:`_fan_flips`), so a mesh whose
    faces are not consistently oriented gets the normal of its consistent
    orientation; a consistent fan is summed as stored."""
    if faces.size == 0:
        raise CurveExtractionError("no faces near the landmark")
    corners, d = faces.ravel(), fv.ravel()
    nearest = corners[(d == d.min()) | np.isnan(d)].min()
    fan = faces[np.flatnonzero(corners == nearest) // 3]
    tris = vertices[fan]
    normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    flip = _fan_flips(fan, nearest)
    if flip:
        normals[flip] *= -1.0
    n = normals.sum(axis=0)
    norm = np.linalg.norm(n)
    if not norm >= 1e-15:  # NaN from a non-finite corner is degenerate too
        raise CurveExtractionError(
            "degenerate apex normal (zero or non-finite area-weighted sum)")
    return n / norm


def _closed_loops(nbr, longest):
    """The closed loops of the crossing graph in which point ``p`` is joined
    to ``nbr[p, 0]`` and ``nbr[p, 1]`` (-1 for none) and no component has
    more than ``longest`` points, as ``(walk, size)``:
    the points of every loop in walk order, loop after loop, and the number
    of points of each.  Loops are ordered by their lowest point; each
    starts there and steps first to ``nbr[start, 0]``.  A chain that ends
    at a point of degree one is open and yields no loop.

    The walk runs on directed half-edges: state ``2p + j`` steps from ``p``
    to ``nbr[p, j]``, and its successor leaves that point by its other
    neighbour (by ``nbr[q, 1]`` when ``nbr[q, 0]`` is where it came from).
    Pointer doubling gives every state the lowest state on its path and the
    number of steps to it, or a negative key when the path ends.  A loop is
    the cycle through its lowest state ``2 * start``, and a state's place in
    the loop counts back from there (Wyllie's list ranking).  Two faces that
    share both crossed edges make a loop of two points whose second point is
    not on the cycle of ``2 * start``: that loop keeps its start alone, and
    like every loop of fewer than 3 points it is never a candidate.  Where
    a point has more than two neighbours the paths are not loops or chains;
    the result for that component is meaningless but stays within it."""
    n_states = 2 * nbr.shape[0]
    target = nbr.ravel()
    states = np.arange(n_states)
    to = np.maximum(target, 0)
    succ = 2 * to + (np.take(nbr[:, 0], to) == states >> 1)
    end = target < 0
    succ[end] = states[end]
    rounds = int(longest).bit_length()  # 2**rounds > longest: every path seen
    scale = 1 << rounds                  # step counts stay below it
    key = states * scale    # lowest state seen * scale + steps to it
    key[end] = -scale
    ahead, jump = np.empty_like(key), np.empty_like(succ)
    for r in range(rounds):
        np.take(key, succ, out=ahead, mode="clip")
        ahead += 1 << r
        np.minimum(key, ahead, out=key)
        np.take(succ, succ, out=jump, mode="clip")
        succ, jump = jump, succ
    low, steps = key >> rounds, key & (scale - 1)
    # a state whose lowest state is even lies on the cycle through it
    member = np.flatnonzero((low >= 0) & (low & 1 == 0))
    start = low[member] >> 1
    size = np.bincount(start, minlength=nbr.shape[0])
    offset = np.cumsum(size) - size
    walk = np.zeros(member.size, dtype=np.int64)
    walk[offset[start] + -steps[member] % size[start]] = member >> 1
    return walk, size[size > 0]


def _take_along_rings(a, idx):
    """``a[k, idx[k, j]]`` for ``a`` of shape ``(K, W, ...)`` and ``idx``
    of shape ``(K, J)``, as one flat gather."""
    K, width = a.shape[:2]
    return np.take(a.reshape(K * width, *a.shape[2:]), idx + width * np.arange(K)[:, None],
                   axis=0)


def _next_index(width, counts):
    """``(K, width)`` index of the next point of each closed ring
    ``k`` of ``counts[k]`` points: 0 follows ``counts[k] - 1``."""
    j = np.arange(width)
    return np.where(j + 1 < counts[:, None], j + 1, 0)


def _crossed_edges(faces, face_owner, fv, levels, n_rows):
    """The segments of every one of the ``n_rows`` (landmark, level) rows:
    a face crossed by a level (its corner distances ``fv`` straddle it)
    adds one segment between its two crossed edges.  Returns ``(n_mixed,
    row, lo, hi)``: the number of segments of each row and, for the two
    crossed edges of every segment (segments level by level, in face
    order), the row and the edge's end vertices, ``lo < hi``."""
    n_lev = levels.size
    face_min = np.minimum(np.minimum(fv[:, 0], fv[:, 1]), fv[:, 2])
    face_max = np.maximum(np.maximum(fv[:, 0], fv[:, 1]), fv[:, 2])
    # (level, face) of every crossed face, level-major and in face order
    crossed = np.flatnonzero((face_min < levels[:, None]) & (face_max >= levels[:, None]))
    lev = crossed // face_min.size
    fi = crossed - lev * face_min.size
    row = face_owner[fi] * n_lev + lev
    ir = np.take(fv, fi, axis=0) < levels[lev, None]
    # edge slot s joins face corners s and s+1 and is crossed iff their
    # inside flags differ.  A crossed face has a corner inside the level
    # and one outside, so the flags change exactly twice around it: every
    # slot is crossed but the one whose flags agree.  The first crossed
    # slot is 0 unless slot 0 agrees, the second 2 unless slot 2 agrees;
    # each edge as corner pairs in slot order
    same0, same2 = ir[:, 0] == ir[:, 1], ir[:, 2] == ir[:, 0]
    f0, f1, f2 = np.take(faces, fi, axis=0).T
    lo, hi = np.empty((2, 2 * row.size), dtype=np.int64)
    for k, (a, b) in enumerate([(np.where(same0, f1, f0), np.where(same0, f2, f1)),
                                (np.where(same2, f1, f2), np.where(same2, f2, f0))]):
        np.minimum(a, b, out=lo[k::2])
        np.maximum(a, b, out=hi[k::2])
    return np.bincount(row, minlength=n_rows), np.repeat(row, 2), lo, hi


def _crossing_graph(vertices, row, lo, hi, centers, levels):
    """The crossing points of the edges of :func:`_crossed_edges`, one per
    distinct (row, lo, hi) and numbered in that order, as ``(point_row,
    pts, nbr, deg)``: each point's row (ascending), position (on its edge,
    at its level's distance from its landmark), neighbours (the other ends
    of the first and the second segment that contain it, -1 for none) and
    degree."""
    n_verts, n_lev = vertices.shape[0], levels.size
    # :func:`_landmark_groups` keeps these keys in int64; the stable sort
    # also lists each point's segments in their order
    keys = (row * n_verts + lo) * n_verts + hi
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    first = np.flatnonzero(new)
    slot = order[first]
    point_row = row[slot]
    land, lev = np.divmod(point_row, n_lev)
    pts = _edge_crossing_points(vertices, np.stack([lo[slot], hi[slot]], axis=1),
                                np.take(centers, land, axis=0), levels[lev])
    # a segment's two edges are slots 2k and 2k + 1, so the other end of
    # the segment through slot t is the point of slot t ^ 1
    point = np.empty(keys.size, dtype=np.int64)
    point[order] = np.cumsum(new) - 1
    deg = np.diff(np.append(first, keys.size))
    nbr = np.full((first.size, 2), -1, dtype=np.int64)
    nbr[:, 0] = point[slot ^ 1]
    two = deg > 1
    nbr[two, 1] = point[order[first[two] + 1] ^ 1]
    return point_row, pts, nbr, deg


def _enclosing_loops(vertices, faces, face_owner, fv, centers, levels, frames, contexts):
    """The closed iso-contour of the distance field that winds around each
    of ``centers`` at each of ``levels``, for every landmark at once:
    landmark ``i`` owns the ``faces`` (ids into ``vertices``) where
    ``face_owner`` is ``i``, and ``fv`` holds the distances of their
    corners to its center.  Returns ``(curves, counts, errors)``.  The loop
    of landmark ``i`` at level ``k`` is row ``r = i * K + k``, the
    ``counts[r]`` points of ``curves`` after those of the rows before it:
    edge-crossing points ordered counterclockwise about the normal of
    ``frames[i]`` (``counts[r] >= 3``).  ``errors[i]`` is the error of a
    landmark whose trace fails, or None; the rows of a failed landmark are
    meaningless.  The first failing level of a landmark fails with the
    first of its checks that fails: crossings, three crossed edges, degree
    at most two, a closed loop, a loop around the landmark, three distinct
    points.  All (landmark, level) rows are traced together in one array
    pass, and no row depends on another.

    A level may hold several closed loops.  Those whose absolute winding
    number about the landmark in its frame's plane is at least 1/2 are
    candidates, and the one kept has the largest winding number rounded to
    an integer, then the centroid farthest from the landmark, then comes
    first.  It is reversed when it winds clockwise."""
    levels = np.asarray(levels, dtype=np.float64)
    n_land, n_lev = len(centers), levels.size
    n_rows = n_land * n_lev
    errors = [None] * n_land
    n_mixed, *edges = _crossed_edges(faces, face_owner, fv, levels, n_rows)
    point_row, pts, nbr, deg = _crossing_graph(vertices, *edges, centers, levels)
    per_row = np.bincount(point_row, minlength=n_rows)
    walk, size = _closed_loops(nbr, per_row.max(initial=0))
    start = np.cumsum(size) - size
    loop_row = point_row[walk[start]]
    loop_land = loop_row // n_lev
    loop_pts = np.take(pts, walk, axis=0)
    # winding number: the wrapped turns of the angle about the normal in
    # the landmark's frame, summed loop by loop
    walk_land = np.repeat(loop_land, size)
    d = loop_pts - np.take(centers, walk_land, axis=0)
    frame = np.take(frames[:, :2], walk_land, axis=0)
    theta = np.arctan2(np.einsum("ij,ij->i", d, frame[:, 1]),
                       np.einsum("ij,ij->i", d, frame[:, 0]))
    nxt = np.arange(1, walk.size + 1)
    nxt[start + size - 1] = start
    dt = theta[nxt] - theta
    dt = (dt + np.pi) % (2.0 * np.pi) - np.pi
    loop = np.repeat(np.arange(size.size), size)
    w = np.bincount(loop, weights=dt, minlength=size.size) / (2.0 * np.pi)
    centroid = np.stack([np.bincount(loop, weights=loop_pts[:, c], minlength=size.size)
                         for c in range(3)], axis=1) / size[:, None] - centers[loop_land]
    centroid_d = np.sqrt(_dot_rows(centroid, centroid))
    cand = np.flatnonzero((size >= 3) & (np.abs(w) >= 0.5))
    cand = cand[np.lexsort((-centroid_d[cand], -np.rint(np.abs(w[cand])), loop_row[cand]))]
    best = np.ones(cand.size, dtype=bool)
    best[1:] = loop_row[cand[1:]] != loop_row[cand[:-1]]
    chosen = np.zeros(n_rows, dtype=np.int64)
    chosen[loop_row[cand[best]]] = cand[best]
    curves, counts = np.zeros((0, 3)), np.zeros(n_rows, dtype=np.int64)
    if cand.size:
        # orient counterclockwise (a clockwise loop's points are taken from
        # its last to its first: negated runs, made positive), then drop
        # consecutive duplicates (crossings exactly at a shared vertex)
        n, first = size[chosen], start[chosen]
        cw = w[chosen] < 0
        curves = np.take(loop_pts, np.abs(_runs(np.where(cw, 1 - first - n, first), n)), axis=0)
        last = np.cumsum(n) - 1
        after = np.arange(1, curves.shape[0] + 1)
        after[last] = last - n + 1
        step = np.take(curves, after, axis=0) - curves
        step *= step
        gap = np.sqrt(step[:, 0] + step[:, 1] + step[:, 2])  # np.linalg.norm's sum
        keep = gap > np.repeat(1e-12 * np.tile(levels, n_land), n)
        counts = np.add.reduceat(keep, last - n + 1, dtype=np.int64)
        curves = curves[keep]
    failed = np.array([
        n_mixed == 0,
        per_row < 3,
        np.bincount(point_row[deg > 2], minlength=n_rows) > 0,
        np.bincount(loop_row, minlength=n_rows) == 0,
        np.bincount(loop_row[cand], minlength=n_rows) == 0,
        counts < 3,
    ]).reshape(6, n_land, n_lev)
    for i in np.flatnonzero(failed.any(axis=(0, 2))).tolist():
        k = int(np.argmax(failed[:, i].any(axis=0)))
        check = int(np.argmax(failed[:, i, k]))
        level, context = levels[k].item(), contexts[i]
        if check == 4:
            errors[i] = CurveAmbiguityError(
                f"iso-level {level}: {np.count_nonzero(loop_row == i * n_lev + k)} closed "
                f"component(s), none encloses the landmark{context}")
            continue
        errors[i] = CurveExtractionError((
            f"iso-level {level} has no crossings{context}",
            f"iso-level {level} crosses fewer than 3 mesh edges{context}",
            "non-manifold iso-contour (a crossing point has degree > 2)",
            f"iso-level {level} is not closed (reaches the mesh boundary){context}",
            None,
            f"iso-level {level} degenerates to <3 points{context}",
        )[check])
    return curves, counts, errors


def _level_curves(mesh: TriangleMesh, near, centers, labels, levels):
    """The apex normals at ``centers`` and the enclosing loops around them
    at ``levels``, as ``(normals, curves, counts, errors)`` with the last
    three as :func:`_enclosing_loops` returns them.  Only a face with a
    corner closer than the largest level can cross a level, so landmark
    ``i`` is traced on the crop of the faces ``near[i]`` (from the mesh's
    neighbourhood index): the crops keep the mesh's vertex ids, the
    distance field is computed at the corners of the crop's faces, and the
    apex normal is taken at the corner that field puts nearest the
    landmark.  A landmark with no face near fails as having no crossings;
    one whose apex normal fails keeps that error."""
    contexts = [f" (landmark {label!r})" if label else "" for label in labels]
    sizes = [ids.size for ids in near]
    faces = np.take(mesh.faces, np.concatenate(near), axis=0)
    face_owner = np.repeat(np.arange(len(near)), sizes)
    fv = np.empty(faces.shape)
    normals = np.tile([0.0, 0.0, 1.0], (len(near), 1))
    apex_errors = [None] * len(near)
    stop = np.cumsum(sizes)
    for i, (a, b) in enumerate(zip(stop - sizes, stop)):
        if a < b:
            fv[a:b] = distance_field(mesh, centers[i], at=faces[a:b])
            try:
                normals[i] = apex_normal(mesh.vertices, faces[a:b], fv[a:b])
            except CurveExtractionError as exc:
                apex_errors[i] = exc
    curves, counts, errors = _enclosing_loops(mesh.vertices, faces, face_owner, fv, centers,
                                              levels, _plane_basis(normals), contexts)
    return normals, curves, counts, [a or e for a, e in zip(apex_errors, errors)]


# ---------------------------------------------------------------------------
# Resampling and patch assembly

def _resample_rings(curves, counts, m):
    """``(K, m, 3)``: ``m`` points at equal arclength spacing along each
    closed polyline ``curves[k, :counts[k]]``, starting at its first point.
    Zero-length segments are dropped with their start points.  Each ring
    gets the arithmetic it would get alone, so it comes out bit for bit
    the same as resampled on its own."""
    K, width = curves.shape[:2]
    j = np.arange(width)
    seg = _take_along_rings(curves, _next_index(width, counts)) - curves
    flat = seg.reshape(-1, 3)
    lens = np.sqrt(np.einsum("ij,ij->i", flat, flat)).reshape(K, width)
    keep = (j < counts[:, None]) & (lens > 0)
    n = np.count_nonzero(keep, axis=1)
    if (n < counts).any():
        order = np.argsort(~keep, axis=1, kind="stable")
        curves, seg, lens = (_take_along_rings(a, order) for a in (curves, seg, lens))
        keep = j < n[:, None]
    total = np.add.reduce(lens, axis=1, where=keep)
    if not (total > 0).all():
        raise ValueError("cannot resample a curve with zero arclength")
    rows = np.arange(K)[:, None]
    targets = np.arange(m) * (total / m)[:, None]
    # searchsorted(cum[k], targets[k], side="right") for all rings in one
    # call: complex numbers sort by real part first, so a ring number in
    # the real part keeps each search within its ring
    cum = np.zeros((K, width + 1), dtype=np.complex128)
    cum.real = rows
    cum.imag[:, 1:] = np.where(keep, np.cumsum(lens, axis=1), np.inf)
    key = np.empty((K, m), dtype=np.complex128)
    key.real = rows
    key.imag = targets
    idx = np.searchsorted(cum.ravel(), key.ravel(), side="right").reshape(K, m)
    idx = np.minimum(np.maximum(idx - 1 - rows * (width + 1), 0), n[:, None] - 1)
    frac = (targets - _take_along_rings(cum.imag, idx)) / _take_along_rings(lens, idx)
    return _take_along_rings(curves, idx) + frac[..., None] * _take_along_rings(seg, idx)


def resample_uniform(curve, m: int) -> np.ndarray:
    """Resample a closed polyline to ``m`` points at equal arclength spacing,
    starting at the polyline's first point."""
    pts = np.asarray(curve, dtype=np.float64)
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    return _resample_rings(pts[None], np.array([pts.shape[0]]), m)[0]


# distance-matrix entries per batch of _ring_shifts: one landmark of a 15x50
# patch, or ten of a 15x20 one.  Batches 16 times as large raised the peak
# RSS of extract_patches on a 9-landmark 15x50 scan by 7 MiB
_SHIFT_BLOCK = 1 << 16


def _ring_shifts(rings):
    """Circular shift of each ring of the ``(L, K, m, 3)`` rings of ``L``
    landmarks that minimizes the summed distance between its samples and
    those of the ring before it, itself shifted (ring 0 keeps its start).
    The best shift of ring k relative to ring k-1 does not depend on ring
    k-1's own shift, so all cost rows come from batches of distance
    matrices (of at most about ``_SHIFT_BLOCK`` entries) and the absolute
    shifts are the running sum of the relative ones, modulo m.  A cost
    adds the same distances as aligning ring k to the shifted ring k-1,
    from another first term, so the two can only differ where two shifts'
    costs agree to rounding."""
    L, K, m = rings.shape[:3]
    j = np.arange(m)
    # cost[k, r]: sum over j of the distance from sample r + j to sample j
    diagonals = (j[:, None] + j) % m * m + j
    shifts = np.zeros((L, K), dtype=np.int64)
    block = max(1, _SHIFT_BLOCK // (K * m * m))
    for a in range(0, L, block):
        r = rings[a:a + block]
        flat = r.reshape(-1, 3)
        sq = np.einsum("ij,ij->i", flat, flat).reshape(r.shape[:3])
        d2 = (sq[:, 1:, :, None] + sq[:, :-1, None, :]
              - 2.0 * (r[:, 1:] @ r[:, :-1].transpose(0, 1, 3, 2)))
        d = np.sqrt(np.maximum(d2, 0.0)).reshape(len(r), K - 1, m * m)
        cost = np.take(d, diagonals, axis=2).sum(axis=3)
        shifts[a:a + block, 1:] = np.cumsum(np.argmin(cost, axis=2), axis=1) % m
    return shifts


def _assemble(curves, counts, centers, normals, axis, m: int, align: str) -> np.ndarray:
    """The canonical patches ``(L, 1 + K*m, 3)`` of the ``L`` landmarks at
    ``centers`` from their ``K`` loops each, rows as
    :func:`_enclosing_loops` returns them: every ring starts at the point
    that projects most onto ``axis``, is resampled to ``m`` points and
    shifted into rotational alignment with the ring before it, all rows at
    once, each padded to the longest (see :func:`build_patch`)."""
    n_land = len(centers)
    n = counts[:, None]
    j = np.arange(n.max())
    first = (np.cumsum(counts) - counts)[:, None]
    proj = (curves - np.repeat(centers, counts.reshape(n_land, -1).sum(axis=1), axis=0)) @ axis
    score = np.where(j < n, np.take(proj, first + np.minimum(j, n - 1)), -np.inf)
    ring = np.take(curves, first + (j + np.argmax(score, axis=1)[:, None]) % n, axis=0)
    samples = _resample_rings(ring, counts, m)
    shifts = _ring_shifts(samples.reshape(n_land, -1, m, 3)).reshape(-1, 1)
    rings = _take_along_rings(samples, (np.arange(m) + shifts) % m)
    verts = (np.concatenate([centers[:, None], rings.reshape(n_land, -1, 3)], axis=1)
             - centers[:, None])
    if align == "normal":
        verts = verts @ _plane_basis(normals).transpose(0, 2, 1)
        start_dir = verts[:, 1].copy()
        start_dir[:, 2] = 0.0
        norm = np.sqrt(_dot_rows(start_dir, start_dir))
        turn = np.flatnonzero(norm > 1e-12)
        cos_a, sin_a = (start_dir[turn, :2] / norm[turn, None]).T
        rot2 = np.zeros((turn.size, 3, 3))
        rot2[:, 0, 0] = rot2[:, 1, 1] = cos_a
        rot2[:, 0, 1] = sin_a
        rot2[:, 1, 0] = -sin_a
        rot2[:, 2, 2] = 1.0
        verts[turn] = verts[turn] @ rot2.transpose(0, 2, 1)
    return verts


_KEY_LIMIT = 1 << 63  # the edge keys of _enclosing_loops are int64
# (face, level) pairs traced in one batch: three landmarks of a resolution-160
# scan at a 15-level patch.  There, batches of one landmark ran about 20%
# slower, and batches twice as large no faster but with 4 MiB more peak RSS
_BATCH_CELLS = 1 << 17


def _landmark_groups(near, n_levels: int, n_vertices: int, key_limit: int = _KEY_LIMIT,
                     cells: int = _BATCH_CELLS):
    """Consecutive runs of the landmarks whose crops' face ids ``near``
    yields, as lists of those arrays, each traced as one batch by
    :func:`_enclosing_loops` on a mesh of ``n_vertices`` vertices.  A run
    keeps the edge keys below ``key_limit`` (the keys of ``g`` landmarks
    stay below ``g * n_levels * n_vertices**2``) and its working arrays
    small: its crops hold at most ``cells`` (face, level) pairs.  A
    landmark over either bound on its own runs alone.  ``near`` is read
    one landmark at a time, so only one run's crops are held at once."""
    per_key = n_levels * n_vertices * n_vertices
    group, held = [], 0
    for ids in near:
        held += ids.size * n_levels
        if group and ((len(group) + 1) * per_key > key_limit or held > cells):
            yield group
            group, held = [], ids.size * n_levels
        group.append(ids)
    if group:
        yield group


def _patches(mesh: TriangleMesh, labels, centers, cfg: PatchConfig,
             reference_axis=(1.0, 0.0, 0.0), align: str = "none", key_limit: int = _KEY_LIMIT):
    """Patches ``(L, 1+K*m, 3)`` of the landmarks ``labels`` at ``centers``
    and, for each, the error its extraction raised or None (its patch is
    then zero).  One neighbourhood index serves the call; its query, the
    distance field and the apex normal run per landmark, everything else
    once for all landmarks of each run of :func:`_landmark_groups`, and a
    landmark's patch and error do not depend on the other landmarks."""
    if align not in ALIGN_MODES:
        raise ValueError(f"unknown align mode {align!r}")
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    axis = np.asarray(reference_axis, dtype=np.float64).reshape(3)
    levels = cfg.levels()
    out = np.zeros((len(centers), cfg.n_vertices, 3), dtype=np.float64)
    errors = []
    index = Neighbourhood(mesh, max(levels))
    near = (index.faces_within(center) for center in centers)
    for group in _landmark_groups(near, levels.size, mesh.n_vertices, key_limit):
        a, b = len(errors), len(errors) + len(group)
        normals, curves, counts, group_errors = _level_curves(
            mesh, group, centers[a:b], labels[a:b], levels)
        ok = np.array([e is None for e in group_errors])
        if ok.any():
            rows = np.repeat(ok, levels.size)
            out[a:b][ok] = _assemble(curves[np.repeat(rows, counts)], counts[rows],
                                     centers[a:b][ok], normals[ok], axis,
                                     cfg.samples_per_curve, align)
        errors += group_errors
    return out, errors


def build_patch(mesh: TriangleMesh, landmark, cfg: PatchConfig,
                reference_axis=(1.0, 0.0, 0.0), align: str = "none") -> np.ndarray:
    """Extract all level curves around one landmark and assemble the
    canonical patch (apex-centered at the origin) as a ``(1 + K*m, 3)``
    array: vertex 0 is the apex, then curve k sample j at index
    ``1 + k*m + j``.  Its connectivity is :func:`canonical_connectivity`,
    identical for all patches.  This is :func:`extract_patches` for one
    landmark; a failed extraction raises its error.

    ``landmark`` is a (label, position) pair.  Curves are oriented
    counterclockwise about the outward apex normal; each curve starts at
    the crossing point with the largest projection of its apex direction
    onto ``reference_axis`` (the first on ties) and consecutive curves are
    circularly shifted into rotational alignment.  With ``align="normal"``
    the patch is also rotated so the apex normal maps to +z and the
    direction to the first curve's start point fixes the in-plane rotation.
    """
    label, center = landmark
    center = np.asarray(center, dtype=np.float64).reshape(1, 3)
    patches, errors = _patches(mesh, [label], center, cfg, reference_axis, align)
    if errors[0] is not None:
        raise errors[0]
    return patches[0]


def extract_patches(mesh: TriangleMesh, landmarks: LandmarkSet, cfg: PatchConfig,
                    align: str = "none"):
    """Build patches for every landmark of a scan, all traced together.

    Returns ``(array (N, 1+K*m, 3), missing (N,) bool, errors dict)``.
    A landmark whose extraction fails is flagged missing (vertices zeroed),
    never fabricated; the error message is kept for the report.  Every
    other landmark's patch is what :func:`build_patch` gives it alone.
    When the scan's bounding-box diagonal is below ``cfg.lambda_max``, no
    patch fits on it, and each missing landmark's message ends with a
    hint that the coordinates may not be in millimetres.
    """
    patches, errors = _patches(mesh, landmarks.labels, landmarks.positions, cfg, align=align)
    missing = np.array([e is not None for e in errors])
    reasons = {label: str(e) for label, e in zip(landmarks.labels, errors) if e is not None}
    if reasons and mesh.n_vertices:
        extent = float(np.linalg.norm(np.ptp(mesh.vertices, axis=0)))
        if extent < cfg.lambda_max:
            hint = (f"; hint: the scan's bounding-box diagonal {extent:.4g} is below the "
                    f"largest level {cfg.lambda_max:g}, so coordinates may not be in "
                    f"millimetres; see --rescale")
            reasons = {label: reason + hint for label, reason in reasons.items()}
    return patches, missing, reasons


# ---------------------------------------------------------------------------
# Patch archives: one .npy + .json pair per scan

def save_patch_archive(path, patches: np.ndarray, labels, missing, cfg: PatchConfig) -> None:
    """Write per-scan patches as ``<path>.npy`` plus ``<path>.json`` sidecar
    recording the patch configuration, landmark labels and missing flags."""
    arr = np.asarray(patches, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] != cfg.n_vertices or arr.shape[2] != 3:
        raise ValueError(f"patch array shape {arr.shape} does not match config "
                         f"(expected (N, {cfg.n_vertices}, 3))")
    save_npy_json(path, arr, {
        "config": cfg.to_dict(),
        "labels": list(labels),
        "missing": [bool(x) for x in missing],
    })


def load_patch_archive(path):
    """Read a patch archive; returns (patches, labels, missing, cfg)."""
    npy, arr, field = read_npy_json(path)
    cfg = field("config", PatchConfig.from_dict)
    labels = field("labels", lambda v: [str(x) for x in v])
    missing = field("missing", lambda v: np.array([bool(x) for x in v], dtype=bool),
                    len(labels))
    if arr.shape != (len(labels), cfg.n_vertices, 3):
        raise ValueError(f"{npy}: archive shape {arr.shape} inconsistent with sidecar")
    return arr, labels, missing, cfg
