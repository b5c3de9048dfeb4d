"""Test oracles for level-curve extraction: a single-level entry to the
tracer, and the whole-mesh crop and tracing set-up that the neighbourhood
index of ``TriangleMesh`` must reproduce exactly."""

import numpy as np

from facespectra import patches
from facespectra.mesh import TriangleMesh, distance_field


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
    r = np.asarray(r, dtype=np.float64).reshape(3)
    return next(patches._level_curves(mesh, r, [level], label)[1])


def whole_mesh_crop(mesh: TriangleMesh, r, radius: float) -> np.ndarray:
    """Ascending ids of the faces whose smallest corner distance to ``r``
    is below ``radius``, from the distance field over every vertex."""
    fv = distance_field(mesh, r)[mesh.faces]
    face_min = np.minimum(np.minimum(fv[:, 0], fv[:, 1]), fv[:, 2])
    return np.flatnonzero(face_min < radius)


def whole_mesh_level_curves(mesh: TriangleMesh, center, levels, label):
    """``patches._level_curves`` on the whole-mesh crop: every vertex keeps
    its id and the distance field covers the whole mesh."""
    context = f" (landmark {label!r})" if label else ""
    near = whole_mesh_crop(mesh, center, max(levels))
    if not near.size:
        raise patches.CurveExtractionError(
            f"iso-level {float(levels[0])} has no crossings{context}")
    crop = TriangleMesh(mesh.vertices, mesh.faces[near])
    field = distance_field(mesh, center)
    fv = field[crop.faces]
    face_min = np.minimum(np.minimum(fv[:, 0], fv[:, 1]), fv[:, 2])
    face_max = np.maximum(np.maximum(fv[:, 0], fv[:, 1]), fv[:, 2])
    normal = patches.apex_normal(crop, center)
    return normal, patches._enclosing_loops(crop, field, face_min, face_max, center, levels,
                                            patches._plane_basis(normal), context)
