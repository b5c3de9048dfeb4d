"""Manifest-to-features pipeline shared by the CLI and the test harness.

Stages communicate via files (mesh/landmark inputs, optional per-scan
patch archives, basis file, feature tables) so each stage is
independently cacheable; scan-level work is embarrassingly parallel and
can run on a bounded worker pool with deterministic output ordering.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import DatasetManifest
from .features import DESCRIPTORS, FeatureTable, glf_norms, glf_project
from .mesh import MeshFormatError, MeshStructureError, load_landmarks, load_mesh
from .patches import (ALIGN_MODES, PatchConfig, canonical_connectivity, extract_patches,
                      save_patch_archive)
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


@dataclass(frozen=True)
class FeatureRunConfig:
    """Settings of a featurization run besides the patch layout and specs;
    all but ``jobs`` are recorded in each table's sidecar as ``run``."""
    MISSING_POLICIES = ("zero", "drop")   # zero-fill missing blocks, or drop the scan
    align: str = "none"                   # patches.ALIGN_MODES
    missing_policy: str = "zero"
    drop_constant: bool = False
    rescale: float = 1.0
    jobs: int = 1

    def __post_init__(self):
        if self.align not in ALIGN_MODES:
            raise ValueError(f"unknown align mode {self.align!r}")
        if self.missing_policy not in self.MISSING_POLICIES:
            raise ValueError(f"unknown missing policy {self.missing_policy!r}")
        if not 0.0 < self.rescale < float("inf"):
            raise ValueError(f"rescale must be a positive finite number, got {self.rescale}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


def _check_spec(method: str, mode: str, k: int, basis, patch_cfg, drop_constant):
    """Check a (method, mode, k) spec against its :class:`~.features.Descriptor`."""
    if method not in DESCRIPTORS:
        raise ValueError(f"unknown method {method!r}")
    desc = DESCRIPTORS[method]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode not in desc.modes:
        raise ValueError(f"unknown {method} mode {mode!r}")
    if desc.needs_basis and basis is None:
        raise ValueError(f"{method} features require a precomputed basis")
    desc.check(k, basis, patch_cfg, drop_constant)


class FeaturizationError(RuntimeError):
    """No scan of a manifest could be featurized; ``errors`` holds every
    scan's record, as :func:`compute_feature_tables` would return them."""

    def __init__(self, n_scans: int, errors: list):
        first = (errors or [{"scan": "none", "error": "the manifest is empty"}])[0]
        super().__init__(f"no scan could be featurized ({n_scans} scan(s)); first, "
                         f"{first['scan']}: {first.get('error') or first['missing_patches']}")
        self.errors = errors


@dataclass(frozen=True)
class _Job:
    """What stays fixed for one featurization run: all patches share one
    connectivity, so the config, its faces and the basis window are derived
    once and passed to every scan's call (a pool pickles it once per chunk)."""

    cfg: PatchConfig
    specs: tuple          # checked (method, mode, k) triples
    basis: SpectralBasis | None   # the columns GLF reads; None when no spec reads the basis
    faces: np.ndarray     # canonical_connectivity(cfg)
    run: FeatureRunConfig
    patches_dir: Path | None


def _glf_blocks(job, patches, missing, specs, note):
    """GLF rows: one product of all present patches on the job's basis
    window per spec, zeros where a landmark is missing."""
    present = np.flatnonzero(~missing)
    rows = []
    for _, mode, k in specs:
        coeffs = glf_project(patches[present], job.basis, k)
        if mode == "norms":
            coeffs = glf_norms(coeffs)
        blocks = np.zeros((len(missing),) + coeffs.shape[1:])
        blocks[present] = coeffs
        rows.append((blocks.reshape(-1), missing))
    return rows


def _shape_dna_blocks(job, patches, missing, specs, note):
    """Shape-DNA rows: each present patch is solved once, at the largest k
    of the specs (a smaller k is a prefix).  A landmark whose geometry
    fails the solve is flagged missing, and its reason noted, per spec; it
    is never fabricated."""
    k_max = max(k for _, _, k in specs)
    rows = [(np.zeros((len(missing), k)), missing.copy()) for _, _, k in specs]
    for i in np.flatnonzero(~missing).tolist():
        try:
            values = shape_dna(patches[i], job.faces, k_max)
        except (DegenerateGeometryError, EigenConvergenceError) as exc:
            for (method, _, k), (_, miss) in zip(specs, rows):
                miss[i] = True
                note(i, f"{method} k={k}: {exc}")
            continue
        for (_, _, k), (blocks, _) in zip(specs, rows):
            blocks[i] = values[:k]
    return [(blocks.reshape(-1), miss) for blocks, miss in rows]


# Each features.DESCRIPTORS record's per-scan compute (here, so that the solvers
# are looked up as this module's globals): ``blocks(job, patches, missing,
# specs, note)`` gives each of its specs' (row, missing); ``note(i, reason)``
# adds a reason to landmark i's errors.
BLOCKS = {"glf": _glf_blocks, "shapedna": _shape_dna_blocks}


def _featurize_record(job: _Job, rec):
    """``(per-spec (row, missing) list, landmark labels, errors)`` for one
    manifest record; an unreadable mesh or landmark file gives ``(None,
    None, {"scan", "error"})`` instead."""
    try:
        mesh = load_mesh(rec.mesh_path, rescale=job.run.rescale)
        landmarks = load_landmarks(rec.landmarks_path, rescale=job.run.rescale)
        patches, missing, errors = extract_patches(mesh, landmarks, job.cfg, align=job.run.align)
        if job.patches_dir is not None:
            save_patch_archive(job.patches_dir / rec.mesh_path.stem,
                               patches, landmarks.labels, missing, job.cfg)
    except (MeshFormatError, MeshStructureError, OSError) as exc:
        return None, None, {"scan": str(rec.mesh_path), "error": str(exc)}

    def note(i, reason):
        label = landmarks.labels[i]
        errors[label] = "; ".join(filter(None, (errors.get(label), reason)))

    rows = {}    # each method's specs in one call, their rows taken back in spec order
    for method in dict.fromkeys(method for method, _, _ in job.specs):
        specs = [spec for spec in job.specs if spec[0] == method]
        rows[method] = iter(BLOCKS[method](job, patches, missing, specs, note))
    return [next(rows[method]) for method, _, _ in job.specs], list(landmarks.labels), errors


def compute_feature_tables(manifest: DatasetManifest, patch_cfg: PatchConfig,
                           specs, basis: SpectralBasis | None = None,
                           patches_dir=None, **settings):
    """Featurize every scan in a manifest for one or more feature specs.

    ``specs`` is a list of (method, mode, k) triples, ``settings`` the
    fields of :class:`FeatureRunConfig`; patches are extracted once per
    scan and shared.  Returns ``(tables, errors)``: ``tables[i]`` is
    ``specs[i]``'s and records the settings but ``jobs``, and the errors.
    A scan whose mesh or landmark file cannot be read is skipped and
    logged with the file named; any other exception aborts the run.  With
    ``missing_policy="drop"`` scans with any missing patch are dropped
    too (otherwise their blocks are zero-filled and flagged); with none
    left it raises :class:`FeaturizationError`.  Two scans that would save
    one patch archive (one mesh file stem) are refused up front.
    """
    run = FeatureRunConfig(**settings)
    specs = tuple((m, mo, int(k)) for m, mo, k in specs)
    for spec in specs:
        _check_spec(*spec, basis, patch_cfg, run.drop_constant)
    d = int(run.drop_constant)    # basis specs read columns [d, d + K), K their largest k
    K = max((k for m, _, k in specs if DESCRIPTORS[m].needs_basis), default=0)
    window = (SpectralBasis(basis.eigenvalues[d:d + K], basis.eigenvectors[:, d:d + K],
                            basis.config_hash) if K else None)
    if patches_dir is not None:
        stems = {}
        for rec in manifest.records:
            first = stems.setdefault(rec.mesh_path.stem, rec)
            if first is not rec:
                raise ValueError(f"scans {first.mesh_path} and {rec.mesh_path} would both "
                                 f"save their patches as {rec.mesh_path.stem!r}")
        patches_dir = Path(patches_dir)
        patches_dir.mkdir(parents=True, exist_ok=True)
    job = _Job(patch_cfg, specs, window, canonical_connectivity(patch_cfg), run, patches_dir)
    featurize = functools.partial(_featurize_record, job)
    workers = min(run.jobs, len(manifest.records))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            # map's chunks of ceil(records / (4 * workers)) keep every worker
            # busy; each chunk carries one pickled copy of the job
            results = pool.map(featurize, manifest.records)
    else:
        results = [featurize(rec) for rec in manifest.records]

    kept = []
    errors = []
    landmark_labels = None
    for rec, (per_spec, labels, errs) in zip(manifest.records, results):
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
        if run.missing_policy == "drop" and any(miss.any() for _, miss in per_spec):
            errors.append({"scan": str(rec.mesh_path),
                           "error": "dropped (missing patches under --missing drop)"})
            continue
        kept.append((rec, per_spec))
    if not kept:
        raise FeaturizationError(len(manifest.records), errors)
    records = [rec for rec, _ in kept]
    return [
        FeatureTable(
            X=np.vstack([per_spec[s][0] for _, per_spec in kept]),
            subjects=[r.subject for r in records],
            expressions=[r.expression for r in records],
            intensities=[r.intensity for r in records],
            aus=[r.aus for r in records],
            missing=np.vstack([per_spec[s][1] for _, per_spec in kept]),
            landmark_labels=landmark_labels,
            method=method,
            mode=mode,
            k=k,
            config=patch_cfg.to_dict(),
            config_hash=patch_cfg.connectivity_hash(),
            run={key: value for key, value in asdict(run).items() if key != "jobs"},
            errors=errors,
        )
        for s, (method, mode, k) in enumerate(specs)
    ], errors
