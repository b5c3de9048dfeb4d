"""Manifest-to-features pipeline shared by the CLI and the test harness.

Stages communicate via files (mesh/landmark inputs, optional per-scan
patch archives, basis file, feature tables) so each stage is
independently cacheable; scan-level work is embarrassingly parallel and
can run on a bounded worker pool with deterministic output ordering.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import DatasetManifest
from .features import (
    GLF_MODES,
    METHOD_GLF,
    METHOD_SHAPEDNA,
    METHODS,
    MODE_NORMS,
    FeatureTable,
    block_length,
    glf_norms,
    glf_project,
)
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
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if method == METHOD_GLF:
        if mode not in GLF_MODES:
            raise ValueError(f"unknown glf mode {mode!r}")
        if basis is None:
            raise ValueError("glf features require a precomputed basis")
        if basis.n != patch_cfg.n_vertices:
            raise ValueError(
                f"basis dimension {basis.n} does not match patch size {patch_cfg.n_vertices}"
            )
        if basis.config_hash not in (None, patch_cfg.connectivity_hash()):
            raise ValueError(f"basis connectivity hash {basis.config_hash:#x} does not "
                             f"match the patches' {patch_cfg.connectivity_hash():#x}")
        need = k + 1 if drop_constant else k
        if need > basis.k:
            raise ValueError(f"k={k} (+constant row) exceeds basis columns {basis.k}")
        return mode
    if k > patch_cfg.n_vertices - 1:
        raise ValueError(f"shapedna k={k} exceeds the {patch_cfg.n_vertices - 1} non-zero "
                         f"eigenvalues of a {patch_cfg.n_vertices}-vertex patch")
    return "eigenvalues"


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
    connectivity, so the config, its faces and the basis are set once per
    worker (the basis is not re-pickled for every task)."""

    cfg: PatchConfig
    specs: tuple          # checked (method, mode, k) triples
    basis: SpectralBasis | None
    faces: np.ndarray     # canonical_connectivity(cfg)
    run: FeatureRunConfig
    patches_dir: Path | None


_JOB: _Job | None = None


def _set_job(job: _Job | None) -> None:
    global _JOB
    _JOB = job


def _shape_dna_rows(patches, missing, k):
    """Shape-DNA of every present patch at ``k`` eigenvalues, solved once
    for all Shape-DNA specs (a smaller k is a prefix): ``{landmark: values
    or the error its geometry raised}``."""
    rows = {}
    for i in np.flatnonzero(~missing).tolist():
        try:
            rows[i] = shape_dna(patches[i], _JOB.faces, k)
        except (DegenerateGeometryError, EigenConvergenceError) as exc:
            rows[i] = exc
    return rows


def _spec_blocks(patches, missing, labels, spec, errors, dna):
    """One scan's feature row for a (method, mode, k) spec and its missing
    mask: landmark i's block fills ``row[i*w:(i+1)*w]``, zeros where the
    landmark is missing.

    GLF blocks of all present landmarks are one product on the shared
    basis; Shape-DNA blocks are the first k values of ``dna``
    (:func:`_shape_dna_rows`).  A landmark whose Shape-DNA fails on its
    geometry is flagged missing for this spec and its reason added to
    ``errors``; it is never fabricated.
    """
    method, mode, k = spec
    w = block_length(method, mode, k)
    blocks = np.zeros((len(labels), w))
    miss = missing.copy()
    present = np.flatnonzero(~missing)
    if method == METHOD_GLF:
        drop = int(_JOB.run.drop_constant)
        coeffs = glf_project(patches[present], _JOB.basis, k + drop)[:, drop:]
        if mode == MODE_NORMS:
            coeffs = glf_norms(coeffs)
        blocks[present] = coeffs.reshape(len(present), w)
        return blocks.reshape(-1), miss
    for i, values in dna.items():
        if isinstance(values, Exception):
            miss[i] = True
            reason = f"{method} k={k}: {values}"
            errors[labels[i]] = "; ".join(filter(None, (errors.get(labels[i]), reason)))
        else:
            blocks[i] = values[:k]
    return blocks.reshape(-1), miss


def _featurize_record(rec):
    """``(per-spec (row, missing) list, landmark labels, errors)`` for one
    manifest record; an unreadable mesh or landmark file gives ``(None,
    None, {"scan", "error"})`` instead."""
    try:
        mesh = load_mesh(rec.mesh_path, rescale=_JOB.run.rescale)
        landmarks = load_landmarks(rec.landmarks_path, rescale=_JOB.run.rescale)
        patches, missing, errors = extract_patches(mesh, landmarks, _JOB.cfg,
                                                   align=_JOB.run.align)
        if _JOB.patches_dir is not None:
            save_patch_archive(_JOB.patches_dir / rec.mesh_path.stem,
                               patches, landmarks.labels, missing, _JOB.cfg)
    except (MeshFormatError, MeshStructureError, OSError) as exc:
        return None, None, {"scan": str(rec.mesh_path), "error": str(exc)}
    dna_k = max((k for method, _, k in _JOB.specs if method == METHOD_SHAPEDNA), default=0)
    dna = _shape_dna_rows(patches, missing, dna_k) if dna_k else {}
    per_spec = [_spec_blocks(patches, missing, landmarks.labels, spec, errors, dna)
                for spec in _JOB.specs]
    return per_spec, list(landmarks.labels), errors


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
    specs = tuple((m, _check_spec(m, mo, int(k), basis, patch_cfg, run.drop_constant), int(k))
                  for (m, mo, k) in specs)
    if patches_dir is not None:
        stems = {}
        for rec in manifest.records:
            first = stems.setdefault(rec.mesh_path.stem, rec)
            if first is not rec:
                raise ValueError(f"scans {first.mesh_path} and {rec.mesh_path} would both "
                                 f"save their patches as {rec.mesh_path.stem!r}")
        patches_dir = Path(patches_dir)
        patches_dir.mkdir(parents=True, exist_ok=True)
    job = _Job(patch_cfg, specs, basis, canonical_connectivity(patch_cfg), run, patches_dir)
    workers = min(run.jobs, len(manifest.records))
    if workers > 1:
        with multiprocessing.Pool(workers, initializer=_set_job, initargs=(job,)) as pool:
            # map's chunks of ceil(records / (4 * workers)) keep every worker busy
            results = pool.map(_featurize_record, manifest.records)
    else:
        _set_job(job)
        try:
            results = [_featurize_record(rec) for rec in manifest.records]
        finally:
            _set_job(None)

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
