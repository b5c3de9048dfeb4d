"""Per-patch and per-face feature vectors.

Two descriptor families, one :class:`Descriptor` record each: projections
of the patch coordinate functions onto the shared graph-Laplacian eigenbasis
(with an optional rotation-invariant per-row-norm variant), and per-patch
Shape-DNA eigenvalue signatures.  A scan's feature row concatenates its
per-landmark blocks (``block_length`` values each) in landmark order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .artifacts import read_npy_json, save_npy_json
from .spectral import SpectralBasis


@dataclass(frozen=True)
class Descriptor:
    """How one feature method's tables are laid out and its specs checked;
    its per-scan compute is ``pipeline.BLOCKS[name]``."""

    name: str
    modes: dict           # mode -> values per component (1, or 3: x/y/z); first is the default
    needs_basis: bool     # projects onto the shared basis
    check: Callable       # (k, basis, patch_cfg, drop_constant); raises ValueError


def _check_glf(k, basis, patch_cfg, drop_constant):
    if basis.n != patch_cfg.n_vertices:
        raise ValueError(f"basis dimension {basis.n} does not match patch size "
                         f"{patch_cfg.n_vertices}")
    if basis.config_hash is None:
        raise ValueError("basis carries no connectivity hash to check against the patches'")
    if basis.config_hash != patch_cfg.connectivity_hash():
        raise ValueError(f"basis connectivity hash {basis.config_hash:#x} does not "
                         f"match the patches' {patch_cfg.connectivity_hash():#x}")
    if k + drop_constant > basis.k:
        raise ValueError(f"k={k} (+constant row) exceeds basis columns {basis.k}")


def _check_shape_dna(k, basis, patch_cfg, drop_constant):
    if k > patch_cfg.n_vertices - 1:
        raise ValueError(f"shapedna k={k} exceeds the {patch_cfg.n_vertices - 1} non-zero "
                         f"eigenvalues of a {patch_cfg.n_vertices}-vertex patch")


# the first record is the CLI's default method; --mode offers every record's modes
DESCRIPTORS = {d.name: d for d in (
    Descriptor("glf", {"coords": 3, "norms": 1}, True, _check_glf),
    Descriptor("shapedna", {"eigenvalues": 1}, False, _check_shape_dna))}


def glf_project(patch: np.ndarray, basis: SpectralBasis, k: int) -> np.ndarray:
    """Project the patch's x/y/z coordinate functions onto the first k
    shared eigenvectors.  Returns the (k, 3) coefficient matrix; entry
    (i, c) is the plain dot product of eigenvector i with channel c (no
    normalization).  Stacked ``(..., n, 3)`` patches give ``(..., k, 3)``
    in one product."""
    coords = np.asarray(patch, dtype=np.float64)
    if coords.ndim < 2 or coords.shape[-1] != 3:
        raise ValueError(f"patch coordinates must be (..., n, 3), got {coords.shape}")
    if coords.shape[-2] != basis.n:
        raise ValueError(
            f"basis dimension {basis.n} does not match patch vertex count {coords.shape[-2]}"
        )
    if not 1 <= k <= basis.k:
        raise ValueError(f"k must be in [1, {basis.k}], got {k}")
    return basis.eigenvectors[:, :k].T @ coords


def glf_norms(coeffs: np.ndarray) -> np.ndarray:
    """Euclidean norm of each coefficient row across the three channels
    (rotation-invariant variant of the projection features); the last axis
    holds the channels."""
    return np.linalg.norm(np.asarray(coeffs, dtype=np.float64), axis=-1)


def block_length(method: str, mode: str, k: int) -> int:
    return k * DESCRIPTORS[method].modes[mode]


def feature_names(landmark_labels, method: str, mode: str, k: int) -> list:
    """Column names: ``L{landmark}_e{i}_{x|y|z}`` for 3 values per
    component, ``L{landmark}_e{i}`` for 1."""
    channels = ("",) if DESCRIPTORS[method].modes[mode] == 1 else ("_x", "_y", "_z")
    return [f"L{lab}_e{i}{c}" for lab in landmark_labels for i in range(k) for c in channels]


def truncation_columns(n_landmarks: int, method: str, mode: str, k_full: int,
                       k: int) -> np.ndarray:
    """Column indices that restrict a feature matrix built with ``k_full``
    components per landmark to its leading ``k`` components.  Lets the
    eigenvalue-count sweep reuse one extraction."""
    if k > k_full:
        raise ValueError(f"cannot slice k={k} from a matrix built with k={k_full}")
    w_full = block_length(method, mode, k_full)
    w = block_length(method, mode, k)
    base = np.arange(n_landmarks)[:, None] * w_full
    return (base + np.arange(w)[None, :]).reshape(-1)


# ---------------------------------------------------------------------------
# Feature table persistence

@dataclass
class FeatureTable:
    """A dataset of per-scan feature vectors plus their labels."""

    X: np.ndarray                 # (S, d)
    subjects: list
    expressions: list
    intensities: list
    aus: list                     # list of tuples of AU ints
    missing: np.ndarray           # (S, N) bool
    landmark_labels: list
    method: str
    mode: str
    k: int
    config: dict = field(default_factory=dict)   # patch config echo
    config_hash: int | None = None
    run: dict = field(default_factory=dict)      # FeatureRunConfig fields but jobs
    errors: list = field(default_factory=list)   # skipped scans, missing patches

    def __len__(self) -> int:
        return self.X.shape[0]


def save_feature_table(path, table: FeatureTable) -> None:
    """Binary feature matrix (`.npy`) with a JSON sidecar holding method, k,
    landmark labels, connectivity hash, run settings, errors and label columns."""
    save_npy_json(path, np.asarray(table.X, dtype=np.float64), {
        "method": table.method,
        "mode": table.mode,
        "k": table.k,
        "n_landmarks": len(table.landmark_labels),
        "landmark_labels": list(table.landmark_labels),
        "config": table.config,
        "config_hash": table.config_hash,
        "run": table.run,
        "errors": table.errors,
        "subjects": list(table.subjects),
        "expressions": list(table.expressions),
        "intensities": [int(x) for x in table.intensities],
        "aus": [list(map(int, a)) for a in table.aus],
        "missing": [[bool(x) for x in row] for row in table.missing],
    })


def load_feature_table(path) -> FeatureTable:
    """Read a feature table.  A sidecar field that is absent, does not
    convert, or lacks one row per sample, and a method or mode that no
    :class:`Descriptor` records, raise ValueError naming the ``.json``
    file and the field."""
    npy, X, entry = read_npy_json(path)
    if X.ndim != 2:
        raise ValueError(f"{npy}: feature matrix has shape {X.shape}, expected 2-D")
    n = X.shape[0]
    labels = entry("landmark_labels", lambda v: [str(x) for x in v])

    def flags(v):
        rows = [[bool(x) for x in row] for row in v]
        if any(len(row) != len(labels) for row in rows):
            raise ValueError(f"a row does not hold one flag per landmark ({len(labels)})")
        return np.array(rows, dtype=bool).reshape(len(rows), len(labels))

    def known(v, names, kind):
        if str(v) not in names:
            raise ValueError(f"unknown {kind} {str(v)!r}")
        return str(v)

    method = entry("method", lambda v: known(v, DESCRIPTORS, "method"))
    table = FeatureTable(
        X=X,
        subjects=entry("subjects", lambda v: [str(s) for s in v], n),
        expressions=entry("expressions", lambda v: [str(e) for e in v], n),
        intensities=entry("intensities", lambda v: [int(i) for i in v], n),
        aus=entry("aus", lambda v: [tuple(int(x) for x in a) for a in v], n),
        missing=entry("missing", flags, n),
        landmark_labels=labels,
        method=method,
        mode=entry("mode", lambda v: known(v, DESCRIPTORS[method].modes, f"{method} mode")),
        k=entry("k", int),
        config=entry("config", lambda v: dict(v or {})),
        config_hash=entry("config_hash", lambda v: None if v is None else int(v)),
        run=entry("run", lambda v: dict(v or {}), required=False),
        errors=entry("errors", lambda v: list(v or []), required=False),
    )
    expected = len(table.landmark_labels) * block_length(table.method, table.mode, table.k)
    if X.shape[1] != expected:
        raise ValueError(f"{npy}: matrix width {X.shape[1]} does not match metadata "
                         f"(expected {expected})")
    return table


def save_feature_csv(path, table: FeatureTable) -> None:
    """CSV export: label columns first, then named feature columns."""
    import csv as _csv

    names = feature_names(table.landmark_labels, table.method, table.mode, table.k)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["subject", "expression", "intensity", "aus"] + names)
        for i in range(len(table)):
            aus = "+".join(str(a) for a in table.aus[i])
            row = [table.subjects[i], table.expressions[i], str(table.intensities[i]), aus]
            row += [f"{x:.12g}" for x in table.X[i]]
            writer.writerow(row)
