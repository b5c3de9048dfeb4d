"""Level-curve extraction and canonical patch assembly.

A patch is the local surface disk around one landmark, represented by a
fixed number of concentric level curves (points at equal Euclidean
distance from the landmark), each resampled to a fixed point count.  All
patches therefore share one vertex layout and one implied connectivity,
which is what makes a single shared spectral basis possible.

All levels of a landmark are traced together, in a few array passes:

- Marching triangles on the distance field give each level's crossing
  points (one per crossed edge) and segments (one per crossed face).
- Loops are walked on directed half-edges ``p -> q`` between crossing
  points; the successor of ``p -> q`` leaves ``q`` by its other neighbour.
  Pointer doubling finds every closed loop with its lowest point and each
  point's place in it, so a loop starts at its lowest point and steps first
  to that point's first neighbour, whatever the face orientation.  Chains
  that reach the mesh boundary are dropped.
- Each level keeps the loop with the largest absolute winding number about
  the landmark in the plane orthogonal to the apex normal (at least 1/2),
  then the one whose centroid lies farthest from the landmark, then the
  first; it is reversed to run counterclockwise.
- Every ring starts at the point that projects most onto the reference
  axis and is resampled by arclength.  The best circular shift of ring k
  against ring k-1 does not depend on where ring k-1 starts, so all
  relative shifts come from one batch of distance matrices and each ring's
  shift is their running sum.
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


def apex_normal(mesh: TriangleMesh, r) -> np.ndarray:
    """Outward surface normal near ``r``: area-weighted average of the face
    normals incident to the nearest vertex that some face references
    (vertices no face uses are ignored).  Faces are summed as oriented by
    the lowest-numbered incident face (:func:`_fan_flips`), so a mesh whose
    faces are not consistently oriented gets the normal of its consistent
    orientation; a consistent fan is summed as stored."""
    r = np.asarray(r, dtype=np.float64).reshape(3)
    f = mesh.faces
    if f.size == 0:
        raise CurveExtractionError(f"no faces near {r.tolist()}")
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[f] = True
    used = np.flatnonzero(used)
    nearest = used[nearest_vertex(mesh.vertices[used], r)]
    fan = f[(f[:, 0] == nearest) | (f[:, 1] == nearest) | (f[:, 2] == nearest)]
    tris = mesh.vertices[fan]
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
    succ = 2 * to + (nbr[to, 0] == states >> 1)
    end = target < 0
    succ[end] = states[end]
    rounds = int(longest).bit_length()  # 2**rounds > longest: every path seen
    scale = 1 << rounds                  # step counts stay below it
    key = states * scale    # lowest state seen * scale + steps to it
    key[end] = -scale
    for r in range(rounds):
        key = np.minimum(key, key[succ] + (1 << r))
        succ = succ[succ]
    low, steps = np.divmod(key, scale)
    # a state whose lowest state is even lies on the cycle through it
    member = np.flatnonzero((low >= 0) & (low % 2 == 0))
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


def _enclosing_loops(mesh, field, face_min, face_max, center, levels, frame, context):
    """The closed iso-contour of ``field`` that winds around ``center`` at
    each of ``levels``, as ``(curves, counts)``: level k's loop is
    ``curves[k, :counts[k]]``, edge-crossing points ordered
    counterclockwise about the frame normal (``counts[k] >= 3``; the rest
    of the row is padding).  All levels are traced together in one array
    pass.  When levels fail, the first failing level raises the first of
    its checks that fails: crossings, three crossed edges, degree at most
    two, a closed loop, a loop around the landmark, three distinct points.

    A level may hold several closed loops.  The one kept is the one with
    the largest absolute winding number about ``center`` in the frame's
    plane (at least 1/2), then the one whose centroid is farthest from
    ``center``, then the first.  It is reversed when it winds clockwise."""
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
    point_level = uniq // span
    edges = uniq % span
    pts = _edge_crossing_points(mesh.vertices,
                                np.stack([edges // n_verts, edges % n_verts], axis=1),
                                center, levels[point_level])
    # each point's neighbours: the other ends of the first and the second
    # segment (crossed face) that contain it
    ends = inverse.ravel()
    other = inverse.reshape(-1, 2)[:, ::-1].ravel()
    order = np.argsort(ends, kind="stable")
    deg = np.bincount(ends, minlength=uniq.size)
    first = np.cumsum(deg) - deg
    nbr = np.full((uniq.size, 2), -1, dtype=np.int64)
    nbr[:, 0] = other[order[first]]
    two = deg > 1
    nbr[two, 1] = other[order[first[two] + 1]]
    per_level = np.diff(np.searchsorted(uniq, np.arange(levels.size + 1) * span))
    walk, size = _closed_loops(nbr, per_level.max(initial=0))
    start = np.cumsum(size) - size
    loop_level = point_level[walk[start]]
    loop_pts = np.take(pts, walk, axis=0)
    # winding number: the wrapped turns of the angle about the normal, each
    # loop summed pairwise like np.sum, as rows of a padded array
    e1, e2, _ = frame
    d = loop_pts - center
    theta = np.arctan2(d @ e2, d @ e1)
    nxt = np.arange(1, walk.size + 1)
    nxt[start + size - 1] = start
    dt = theta[nxt] - theta
    dt = (dt + np.pi) % (2.0 * np.pi) - np.pi
    inside = np.arange(size.max(initial=0)) < size[:, None]
    turns = np.zeros(inside.shape)
    turns[inside] = dt
    w = np.add.reduce(turns, axis=1, where=inside) / (2.0 * np.pi)
    loop = np.repeat(np.arange(size.size), size)
    centroid = np.stack([np.bincount(loop, weights=loop_pts[:, c], minlength=size.size)
                         for c in range(3)], axis=1) / size[:, None] - center
    centroid_d = np.sqrt((centroid[:, None, :] @ centroid[:, :, None])[:, 0, 0])
    cand = np.flatnonzero((size >= 3) & (np.abs(w) >= 0.5))
    cand = cand[np.lexsort((-centroid_d[cand], -np.abs(w[cand]), loop_level[cand]))]
    best = np.ones(cand.size, dtype=bool)
    best[1:] = loop_level[cand[1:]] != loop_level[cand[:-1]]
    chosen = np.zeros(levels.size, dtype=np.int64)
    chosen[loop_level[cand[best]]] = cand[best]
    curves, counts = np.zeros((levels.size, 1, 3)), np.full(levels.size, 3)
    if cand.size:
        # orient counterclockwise, then drop consecutive duplicates
        # (crossings exactly at a shared vertex)
        n = size[chosen][:, None]
        j = np.arange(n.max())
        col = np.minimum(j, n - 1)
        col = np.where(w[chosen][:, None] < 0, n - 1 - col, col)
        curves = np.take(loop_pts, start[chosen][:, None] + col, axis=0)
        step = _take_along_rings(curves, _next_index(j.size, n[:, 0])) - curves
        keep = (np.linalg.norm(step, axis=2) > 1e-12 * levels[:, None]) & (j < n)
        counts = np.count_nonzero(keep, axis=1)
        if (counts < n[:, 0]).any():
            curves = _take_along_rings(curves, np.argsort(~keep, axis=1, kind="stable"))
    failed = np.array([
        n_mixed == 0,
        per_level < 3,
        np.bincount(point_level[deg > 2], minlength=levels.size) > 0,
        np.bincount(loop_level, minlength=levels.size) == 0,
        np.bincount(loop_level[cand], minlength=levels.size) == 0,
        counts < 3,
    ])
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        check = int(np.argmax(failed[:, i]))
        level = levels[i].item()
        if check == 4:
            raise CurveAmbiguityError(
                f"iso-level {level}: {np.count_nonzero(loop_level == i)} closed component(s), "
                f"none encloses the landmark{context}")
        raise CurveExtractionError((
            f"iso-level {level} has no crossings{context}",
            f"iso-level {level} crosses fewer than 3 mesh edges{context}",
            "non-manifold iso-contour (a crossing point has degree > 2)",
            f"iso-level {level} is not closed (reaches the mesh boundary){context}",
            None,
            f"iso-level {level} degenerates to <3 points{context}",
        )[check])
    return curves, counts


def _level_curves(mesh: TriangleMesh, center, levels, label):
    """The apex normal at ``center`` and the enclosing loops around it at
    ``levels``, oriented counterclockwise about that normal, as
    :func:`_enclosing_loops` returns them.  Only a face with a corner
    closer than the largest level can cross a level, so the normal and
    every loop are taken from the submesh of those faces, found from the
    mesh's neighbourhood index; the distance field is computed once on it
    for all levels."""
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


def _ring_shifts(rings):
    """Circular shift of each of the ``(K, m, 3)`` rings that minimizes the
    summed distance between its samples and those of the ring before it,
    itself shifted (ring 0 keeps its start).  The best shift of ring k
    relative to ring k-1 does not depend on ring k-1's own shift, so all
    K-1 cost rows come from one batch of distance matrices and the absolute
    shifts are the running sum of the relative ones, modulo m.  A cost
    adds the same distances as aligning ring k to the shifted ring k-1,
    from another first term, so the two can only differ where two shifts'
    costs agree to rounding."""
    K, m = rings.shape[:2]
    flat = rings.reshape(-1, 3)
    sq = np.einsum("ij,ij->i", flat, flat).reshape(K, m)
    d2 = sq[1:, :, None] + sq[:-1, None, :] - 2.0 * (rings[1:] @ rings[:-1].transpose(0, 2, 1))
    d = np.sqrt(np.maximum(d2, 0.0)).reshape(K - 1, m * m)
    j = np.arange(m)
    # cost[k, r]: sum over j of the distance from sample r + j to sample j
    cost = np.take(d, (j[:, None] + j) % m * m + j, axis=1).sum(axis=2)
    return np.concatenate([[0], np.cumsum(np.argmin(cost, axis=1)) % m])


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
    onto ``reference_axis`` (the first on ties) and consecutive curves are
    circularly shifted into rotational alignment.  With ``align="normal"``
    the patch is also rotated so the apex normal maps to +z and the
    direction to the first curve's start point fixes the in-plane rotation.
    """
    if align not in ("none", "normal"):
        raise ValueError(f"unknown align mode {align!r}")
    label, center = landmark
    center = np.asarray(center, dtype=np.float64).reshape(3)
    axis = np.asarray(reference_axis, dtype=np.float64).reshape(3)
    normal, (curves, counts) = _level_curves(mesh, center, cfg.levels(), label)
    K, width = curves.shape[:2]
    m = cfg.samples_per_curve
    j = np.arange(width)
    proj = ((curves - center).reshape(-1, 3) @ axis).reshape(K, width)
    start = np.argmax(np.where(j < counts[:, None], proj, -np.inf), axis=1)
    roll = (j + start[:, None]) % counts[:, None]
    samples = _resample_rings(_take_along_rings(curves, roll), counts, m)
    rings = _take_along_rings(samples, (np.arange(m) + _ring_shifts(samples)[:, None]) % m)
    verts = np.concatenate([center[None, :], rings.reshape(-1, 3)]) - center
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
