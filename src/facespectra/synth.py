"""Synthetic face-scan generator.

Builds desk-scale datasets with the same layout as a real corpus: a
smooth face-like height field on a rectangular grid, 68 labelled
landmarks at fixed parametric positions, six expression classes realized
as distinct sets of localized bump/dent deformation fields (one field
group per Action Unit, amplitude proportional to the intensity level),
and a seeded low-frequency per-subject shape perturbation.  AU labels
follow deterministically from which fields are active.

Expression classes share deformation regions on purpose (brow raises in
FE and SU, brow/mouth overlap between AN and SA) so that the synthetic
task is separable but not trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import EXPRESSIONS
from .data import ManifestRecord, save_manifest
from .mesh import (LandmarkSet, TriangleMesh, obj_face_records, obj_vertex_records,
                   save_landmarks)

X_EXTENT = 150.0  # grid width, mm
Y_EXTENT = 170.0  # grid height, mm


@dataclass(frozen=True)
class SynthConfig:
    subjects: int = 10
    expressions: tuple = EXPRESSIONS
    levels: tuple = (1, 2)
    resolution: int = 64          # vertices across the face width
    amplitude: float = 3.0        # expression bump scale per intensity level, mm
    subject_amplitude: float = 1.5
    jitter: float = 0.0           # optional Gaussian vertex noise, mm
    seed: int = 0

    def __post_init__(self):
        if self.subjects < 1:
            raise ValueError("need at least one subject")
        if self.resolution < 24:
            raise ValueError("resolution must be >= 24 for usable level curves")
        if self.amplitude <= 0 or self.subject_amplitude <= 0:
            raise ValueError("deformation amplitudes must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        bad = [e for e in self.expressions if e not in EXPRESSIONS]
        if bad:
            raise ValueError(f"unknown expression tokens {bad}")
        if not self.levels:
            raise ValueError("levels is empty: need at least one intensity level")
        if any(int(l) != l or int(l) < 1 for l in self.levels):
            raise ValueError(f"intensity levels must be positive integers, got {self.levels}")
        for name, values in (("expressions", self.expressions), ("levels", self.levels)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} {values} repeat an entry: every scan id must be unique")


# ---------------------------------------------------------------------------
# Landmark layout (face coordinates in mm, x lateral, y vertical)

def _build_layout():
    pts = []
    for i in range(5):
        pts.append((f"LBROW_{i}", -52.0 + 9.0 * i, 36.0 + 4.0 * math.sin(math.pi * i / 4)))
    for i in range(5):
        pts.append((f"RBROW_{i}", 16.0 + 9.0 * i, 36.0 + 4.0 * math.sin(math.pi * (4 - i) / 4)))
    for side, cx in (("L", -33.0), ("R", 33.0)):
        for i in range(8):
            ang = 2.0 * math.pi * i / 8
            pts.append((f"{side}EYE_{i}", cx + 10.0 * math.cos(ang), 24.0 + 4.5 * math.sin(ang)))
    for i, (x, y) in enumerate([(0.0, 30.0), (0.0, 22.0), (0.0, 14.0), (0.0, 6.0), (0.0, 0.0)]):
        pts.append((f"NOSE_{i}", x, y))
    base_x = [-12.0, -8.0, -4.0, 0.0, 4.0, 8.0, 12.0]
    base_y = [-6.5, -7.5, -8.2, -8.5, -8.2, -7.5, -6.5]
    for i, (x, y) in enumerate(zip(base_x, base_y)):
        pts.append((f"NOSE_{5 + i}", x, y))
    for i in range(12):
        ang = 2.0 * math.pi * i / 12
        pts.append((f"MOUTH_{i}", 24.0 * math.cos(ang), -28.0 + 8.0 * math.sin(ang)))
    for i in range(10):
        ang = 2.0 * math.pi * i / 10
        pts.append((f"MOUTH_{12 + i}", 16.0 * math.cos(ang), -28.0 + 4.0 * math.sin(ang)))
    pts += [("LCHEEK_0", -40.0, 2.0), ("LCHEEK_1", -44.0, -14.0),
            ("RCHEEK_0", 40.0, 2.0), ("RCHEEK_1", 44.0, -14.0)]
    pts += [("CHIN_0", -12.0, -52.0), ("CHIN_1", -4.0, -56.0),
            ("CHIN_2", 4.0, -56.0), ("CHIN_3", 12.0, -52.0)]
    return pts


LANDMARK_LAYOUT = tuple(_build_layout())
LANDMARK_XY = {label: (x, y) for label, x, y in LANDMARK_LAYOUT}

# Per-AU deformation fields: (landmark anchor, sigma mm, signed weight).
AU_FIELDS = {
    1: (("LBROW_4", 9.0, 1.0), ("RBROW_0", 9.0, 1.0)),
    2: (("LBROW_0", 9.0, 1.0), ("RBROW_4", 9.0, 1.0)),
    4: (("LBROW_3", 9.0, -0.8), ("RBROW_1", 9.0, -0.8), ("NOSE_0", 8.0, -1.0)),
    5: (("LEYE_2", 7.0, 1.0), ("REYE_2", 7.0, 1.0)),
    6: (("LCHEEK_0", 11.0, 1.0), ("RCHEEK_0", 11.0, 1.0)),
    7: (("LEYE_6", 6.0, -0.8), ("REYE_6", 6.0, -0.8)),
    9: (("NOSE_1", 8.0, 1.0),),
    10: (("MOUTH_3", 7.0, 1.0),),
    12: (("MOUTH_0", 8.0, 1.0), ("MOUTH_6", 8.0, 1.0)),
    15: (("MOUTH_0", 8.0, -1.0), ("MOUTH_6", 8.0, -1.0)),
    16: (("MOUTH_9", 7.0, -1.0),),
    17: (("CHIN_1", 9.0, 1.0), ("CHIN_2", 9.0, 1.0)),
    20: (("LCHEEK_1", 8.0, -0.9), ("RCHEEK_1", 8.0, -0.9)),
    23: (("MOUTH_3", 5.0, -0.6), ("MOUTH_9", 5.0, -0.6)),
    24: (("MOUTH_12", 7.0, -0.7), ("MOUTH_17", 7.0, -0.7)),
    25: (("MOUTH_14", 6.0, -0.6), ("MOUTH_15", 6.0, -0.6),
         ("MOUTH_19", 6.0, -0.6), ("MOUTH_20", 6.0, -0.6)),
    26: (("CHIN_1", 12.0, -1.2), ("CHIN_2", 12.0, -1.2), ("MOUTH_9", 9.0, -0.8)),
}

EXPRESSION_AUS = {
    "AN": (4, 7, 23, 24),
    "DI": (9, 10, 16, 17),
    "FE": (1, 2, 4, 5, 20, 25),
    "HA": (6, 12, 25),
    "SA": (1, 4, 15, 17),
    "SU": (1, 2, 5, 25, 26),
}


# ---------------------------------------------------------------------------
# Geometry

def rectangular_grid(nx: int, ny: int, x_extent: float = X_EXTENT,
                     y_extent: float = Y_EXTENT):
    """Grid vertices (row-major, (nx*ny, 2)) and CCW triangle faces."""
    xs = np.linspace(-x_extent / 2.0, x_extent / 2.0, nx)
    ys = np.linspace(-y_extent / 2.0, y_extent / 2.0, ny)
    gx, gy = np.meshgrid(xs, ys)
    xy = np.stack([gx.ravel(), gy.ravel()], axis=1)
    ix, iy = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1))
    a = (iy * nx + ix).ravel()
    b = a + 1
    c = a + nx
    d = c + 1
    faces = np.concatenate([
        np.stack([a, b, d], axis=1),
        np.stack([a, d, c], axis=1),
    ])
    return xy, faces.astype(np.int64)


def _neutral_height(x, y, dome_scale: float, coeffs):
    """A subject's face without expression: the base face scaled by the
    subject's dome factor, plus its low-frequency cosine shape series
    (``coeffs`` is (3, 3); every term but the constant (0, 0))."""
    z = 32.0 * np.exp(-(x * x / (2 * 55.0 ** 2) + y * y / (2 * 70.0 ** 2)))
    z = z + 7.0 * np.exp(-(x * x / (2 * 7.0 ** 2) + (y - 6.0) ** 2 / (2 * 13.0 ** 2)))
    for sx in (-33.0, 33.0):
        z = z - 2.0 * np.exp(-(((x - sx) ** 2 + (y - 24.0) ** 2) / (2 * 9.0 ** 2)))
    u = (x + X_EXTENT / 2.0) / X_EXTENT
    v = (y + Y_EXTENT / 2.0) / Y_EXTENT
    shape = np.zeros_like(np.asarray(x, dtype=np.float64))
    for p, q in list(np.ndindex(3, 3))[1:]:
        shape = shape + coeffs[p, q] * np.cos(np.pi * p * u) * np.cos(np.pi * q * v)
    return dome_scale * z + shape


def _expression_field(x, y, aus, level: int, amplitude: float):
    z = np.zeros_like(np.asarray(x, dtype=np.float64))
    for au in aus:
        for anchor, sigma, weight in AU_FIELDS[au]:
            cx, cy = LANDMARK_XY[anchor]
            z = z + weight * amplitude * level * np.exp(
                -(((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma * sigma))
            )
    return z


def subject_id(idx: int) -> str:
    return f"S{idx:03d}"


def scan_id(subject: str, expression: str, level: int) -> str:
    return f"{subject}_{expression}_{level}"


def _scans(cfg: SynthConfig, subjects, expressions, levels):
    """Yield ``(subject_idx, expression, level, mesh, landmarks, aus)`` for
    every combination, subject-major.  The grid is built once and each
    subject's neutral heights (at the grid vertices and the landmarks)
    once; a scan adds only its expression field and its vertex noise."""
    nx = cfg.resolution
    ny = int(round(cfg.resolution * Y_EXTENT / X_EXTENT))
    xy, faces = rectangular_grid(nx, ny)
    points = (xy, np.array(list(LANDMARK_XY.values())))  # grid vertices, landmarks
    for s in subjects:
        rng = np.random.default_rng([cfg.seed, 101, s])
        coeffs = rng.normal(0.0, cfg.subject_amplitude / 2.0, size=(3, 3))
        dome_scale = 1.0 + 0.05 * float(np.clip(rng.normal(), -2.0, 2.0))
        neutral = [_neutral_height(p[:, 0], p[:, 1], dome_scale, coeffs) for p in points]
        for expression in expressions:
            aus = EXPRESSION_AUS[expression] if expression is not None else ()
            for level in levels:
                heights = neutral
                if aus and level > 0:
                    heights = [z + _expression_field(p[:, 0], p[:, 1], aus, level, cfg.amplitude)
                               for z, p in zip(neutral, points)]
                verts, lmk = (np.column_stack([p, z]) for p, z in zip(points, heights))
                if cfg.jitter > 0:
                    # a neutral scan seeds after the expressions: seed entries must be >= 0
                    expr_idx = EXPRESSIONS.index(expression) if expression else len(EXPRESSIONS)
                    rng = np.random.default_rng([cfg.seed, 202, s, expr_idx, level])
                    verts = verts + rng.normal(0.0, cfg.jitter, size=verts.shape)
                yield (s, expression, level, TriangleMesh(verts, faces),
                       LandmarkSet(tuple(LANDMARK_XY), lmk), tuple(sorted(aus)))


def generate_scan(cfg: SynthConfig, subject_idx: int, expression: str | None,
                  level: int = 0):
    """One scan: mesh, landmark set and its AU labels.

    ``expression=None`` produces the neutral geometry (no active fields),
    useful for locality checks; neutral scans are not part of manifests.
    """
    return next(_scans(cfg, (subject_idx,), (expression,), (level,)))[3:]


def synth_generate(cfg: SynthConfig, out_dir) -> Path:
    """Write a full dataset (OBJ meshes, landmark CSVs, manifest) and return
    the manifest path.  Output is a pure function of the config."""
    out_dir = Path(out_dir)
    (out_dir / "meshes").mkdir(parents=True, exist_ok=True)
    (out_dir / "landmarks").mkdir(parents=True, exist_ok=True)
    records = []
    face_records = None  # every scan shares the one grid's faces: format them once
    for s, expression, level, mesh, landmarks, aus in _scans(
            cfg, range(cfg.subjects), cfg.expressions, tuple(map(int, cfg.levels))):
        if face_records is None:
            face_records = obj_face_records(mesh.faces)
        subject = subject_id(s)
        sid = scan_id(subject, expression, level)
        mesh_path = out_dir / "meshes" / f"{sid}.obj"
        lmk_path = out_dir / "landmarks" / f"{sid}.csv"
        mesh_path.write_text(obj_vertex_records(mesh.vertices) + face_records,
                             encoding="utf-8")
        save_landmarks(lmk_path, landmarks)
        records.append(ManifestRecord(subject, expression, level, mesh_path,
                                      lmk_path, aus))
    records.sort(key=lambda r: (r.subject, r.expression, r.intensity))
    manifest_path = out_dir / "manifest.csv"
    save_manifest(manifest_path, records)
    return manifest_path
