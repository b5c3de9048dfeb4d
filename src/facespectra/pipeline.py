"""Manifest-to-features pipeline shared by the CLI and the test harness.

Stages communicate via files (mesh/landmark inputs, optional per-scan
patch archives, basis file, feature tables) so each stage is
independently cacheable; scan-level work is embarrassingly parallel and
can run on a bounded worker pool with deterministic output ordering.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path

import numpy as np

from .data import DatasetManifest
from .features import (
    METHOD_GLF,
    METHOD_SHAPEDNA,
    MODE_COORDS,
    MODE_NORMS,
    FeatureTable,
    assemble_face,
    glf_norms,
    glf_project,
)
from .mesh import load_landmarks, load_mesh
from .patches import PatchConfig, canonical_connectivity, extract_patches, save_patch_archive
from .spectral import (DegenerateGeometryError, EigenConvergenceError, SpectralBasis,
                       eig_sym, graph_laplacian, shape_dna)


def compute_basis(cfg: PatchConfig, k: int | None = None) -> SpectralBasis:
    """Shared patch basis: eigendecomposition of the graph Laplacian of the
    canonical connectivity.  Computed once per (n_curves, samples) pair."""
    faces = canonical_connectivity(cfg)
    L = graph_laplacian(faces, cfg.n_vertices)
    if k is None:
        k = cfg.n_vertices
    return eig_sym(L, k, config_hash=cfg.connectivity_hash())


def _check_spec(method: str, mode: str, k: int, basis, patch_cfg, drop_constant):
    if method not in (METHOD_GLF, METHOD_SHAPEDNA):
        raise ValueError(f"unknown method {method!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if method == METHOD_GLF:
        if mode not in (MODE_COORDS, MODE_NORMS):
            raise ValueError(f"unknown glf mode {mode!r}")
        if basis is None:
            raise ValueError("glf features require a precomputed basis")
        if basis.n != patch_cfg.n_vertices:
            raise ValueError(
                f"basis dimension {basis.n} does not match patch size {patch_cfg.n_vertices}"
            )
        need = k + 1 if drop_constant else k
        if need > basis.k:
            raise ValueError(f"k={k} (+constant row) exceeds basis columns {basis.k}")
        return mode
    if k > patch_cfg.n_vertices - 1:
        raise ValueError(f"shapedna k={k} exceeds the {patch_cfg.n_vertices - 1} non-zero "
                         f"eigenvalues of a {patch_cfg.n_vertices}-vertex patch")
    return "eigenvalues"


# Per-process context for pool workers (set once by the initializer so the
# basis is not re-pickled for every task).
_CTX: dict = {}


def _init_worker(ctx):
    _CTX.clear()
    _CTX.update(ctx)
    if _CTX.get("basis_vectors") is not None:
        _CTX["basis"] = SpectralBasis(
            _CTX["basis_values"], _CTX["basis_vectors"], _CTX.get("basis_hash")
        )
    else:
        _CTX["basis"] = None


def _spec_blocks(patches, missing, labels, spec, errors):
    """Per-landmark feature blocks for one (method, mode, k) spec.

    A landmark whose descriptor fails on its geometry is flagged missing
    for this spec and its reason added to ``errors``; it is never
    fabricated.
    """
    method, mode, k = spec
    blocks = []
    miss = missing.copy()
    for i in range(patches.shape[0]):
        if miss[i]:
            blocks.append(None)
            continue
        try:
            if method == METHOD_GLF:
                if _CTX["drop_constant"]:
                    coeffs = glf_project(patches[i], _CTX["basis"], k + 1)[1:]
                else:
                    coeffs = glf_project(patches[i], _CTX["basis"], k)
                blocks.append(coeffs if mode == MODE_COORDS else glf_norms(coeffs))
            else:
                blocks.append(shape_dna(patches[i], _CTX["faces"], k,
                                        lumping=_CTX["lumping"]))
        except (DegenerateGeometryError, EigenConvergenceError) as exc:
            blocks.append(None)
            miss[i] = True
            reason = f"{method} k={k}: {exc}"
            errors[labels[i]] = "; ".join(filter(None, (errors.get(labels[i]), reason)))
    return blocks, miss


def _featurize_record(task):
    index, mesh_path, lmk_path = task
    cfg = PatchConfig.from_dict(_CTX["patch_cfg"])
    try:
        mesh = load_mesh(mesh_path, rescale=_CTX["rescale"])
        landmarks = load_landmarks(lmk_path)
        patches, missing, errors = extract_patches(
            mesh, landmarks, cfg, align=_CTX["align"]
        )
        if _CTX["patches_dir"] is not None:
            save_patch_archive(
                Path(_CTX["patches_dir"]) / Path(mesh_path).stem,
                patches, landmarks.labels, missing, cfg,
            )
        per_spec = []
        for spec in _CTX["specs"]:
            blocks, miss = _spec_blocks(patches, missing, landmarks.labels, spec, errors)
            vec = assemble_face(blocks, miss, spec[0], spec[1], spec[2])
            per_spec.append((vec.values, miss))
        return index, per_spec, list(landmarks.labels), errors
    except Exception as exc:
        return index, None, None, {"scan": str(mesh_path), "error": str(exc)}


def compute_feature_tables(manifest: DatasetManifest, patch_cfg: PatchConfig,
                           specs, basis: SpectralBasis | None = None,
                           jobs: int = 1, missing_policy: str = "zero",
                           align: str = "none", drop_constant: bool = False,
                           lumping: str = "mixed", rescale: float = 1.0,
                           patches_dir=None):
    """Featurize every scan in a manifest for one or more feature specs.

    ``specs`` is a list of (method, mode, k) triples; patches are
    extracted once per scan and shared.  Returns ``(tables, errors)``
    where ``tables[i]`` corresponds to ``specs[i]``.  A scan that cannot
    be read or extracted at all is skipped and logged; with
    ``missing_policy="drop"`` scans with any missing patch are dropped
    too (otherwise their blocks are zero-filled and flagged).
    """
    if missing_policy not in ("zero", "drop"):
        raise ValueError(f"unknown missing policy {missing_policy!r}")
    specs = [(m, _check_spec(m, mo, int(k), basis, patch_cfg, drop_constant), int(k))
             for (m, mo, k) in specs]
    if patches_dir is not None:
        Path(patches_dir).mkdir(parents=True, exist_ok=True)
    ctx = {
        "patch_cfg": patch_cfg.to_dict(),
        "specs": specs,
        "align": align,
        "drop_constant": drop_constant,
        "lumping": lumping,
        "rescale": rescale,
        "patches_dir": str(patches_dir) if patches_dir is not None else None,
        "faces": canonical_connectivity(patch_cfg),
        "basis_values": basis.eigenvalues if basis is not None else None,
        "basis_vectors": basis.eigenvectors if basis is not None else None,
        "basis_hash": basis.config_hash if basis is not None else None,
    }
    tasks = [
        (i, str(rec.mesh_path), str(rec.landmarks_path))
        for i, rec in enumerate(manifest.records)
    ]
    results = [None] * len(tasks)
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(jobs, initializer=_init_worker, initargs=(ctx,)) as pool:
            for out in pool.imap(_featurize_record, tasks, chunksize=4):
                results[out[0]] = out
    else:
        _init_worker(ctx)
        for t in tasks:
            out = _featurize_record(t)
            results[out[0]] = out

    rows = [[] for _ in specs]
    missing_rows = [[] for _ in specs]
    keep_records = []
    errors = []
    landmark_labels = None
    for i, rec in enumerate(manifest.records):
        index, per_spec, labels, errs = results[i]
        if per_spec is None:
            errors.append(errs)
            continue
        if landmark_labels is None:
            landmark_labels = labels
        elif labels != landmark_labels:
            errors.append({"scan": str(rec.mesh_path),
                           "error": "landmark labels differ from the first scan"})
            continue
        if errs:
            errors.append({"scan": str(rec.mesh_path), "missing_patches": errs})
        any_missing = any(miss.any() for _, miss in per_spec)
        if any_missing and missing_policy == "drop":
            errors.append({"scan": str(rec.mesh_path),
                           "error": "dropped (missing patches under --missing drop)"})
            continue
        for s, (values, miss) in enumerate(per_spec):
            rows[s].append(values)
            missing_rows[s].append(miss)
        keep_records.append(rec)
    if not keep_records:
        raise RuntimeError("no scan could be featurized")
    tables = []
    for s, (method, mode, k) in enumerate(specs):
        tables.append(FeatureTable(
            X=np.vstack(rows[s]),
            subjects=[r.subject for r in keep_records],
            expressions=[r.expression for r in keep_records],
            intensities=[r.intensity for r in keep_records],
            aus=[r.aus for r in keep_records],
            missing=np.vstack(missing_rows[s]),
            landmark_labels=landmark_labels,
            method=method,
            mode=mode,
            k=k,
            config=patch_cfg.to_dict(),
            config_hash=patch_cfg.connectivity_hash(),
        ))
    return tables, errors
