"""Dataset manifests and the BU-3DFE-style directory adapter.

A manifest is a CSV with header ``subject,expression,intensity,mesh,
landmarks,aus`` where ``aus`` is a ``+``-separated AU-number list and
paths are stored relative to the manifest location.  The corpus adapter
maps a directory following the usual file-naming convention
(``<S####>_<EXPR><LL>*.obj|ply`` plus ``<stem>.lmk.csv``) to a manifest;
no corpus data ships with this package.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

from .classify import AU_SET, EXPRESSIONS


class ManifestError(ValueError):
    """Malformed manifest row or unknown label token."""


@dataclass(frozen=True)
class ManifestRecord:
    subject: str
    expression: str
    intensity: int
    mesh_path: Path
    landmarks_path: Path
    aus: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "mesh_path", Path(self.mesh_path))
        object.__setattr__(self, "landmarks_path", Path(self.landmarks_path))
        object.__setattr__(self, "aus", tuple(int(a) for a in self.aus))
        if self.expression not in EXPRESSIONS:
            raise ManifestError(f"unknown expression token {self.expression!r}")
        if self.intensity < 1:
            raise ManifestError(f"intensity must be >= 1, got {self.intensity}")
        bad = [a for a in self.aus if a not in AU_SET]
        if bad:
            raise ManifestError(f"unknown AU numbers {bad}")


@dataclass
class DatasetManifest:
    HEADER = ("subject", "expression", "intensity", "mesh", "landmarks", "aus")
    records: list
    root: Path

    def __len__(self) -> int:
        return len(self.records)


def _parse_aus(token: str):
    token = token.strip()
    if not token:
        return ()
    try:
        return tuple(int(x) for x in token.split("+"))
    except ValueError:
        raise ManifestError(f"malformed AU list {token!r}") from None


def load_manifest(path, check_paths: bool = True) -> DatasetManifest:
    """Read and validate a manifest CSV.

    Duplicate (subject, expression, intensity) triples are rejected; all
    referenced files must exist unless ``check_paths`` is disabled.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    root = path.parent
    records = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty manifest file") from None
        expected = list(DatasetManifest.HEADER)
        if [h.strip().lower() for h in header] != expected:
            raise ManifestError(f"{path}: bad header {header!r}, expected {expected}")
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ManifestError(f"{path}: line {ln}: expected 6 fields, got {len(row)}")
            subject, expression, intensity, mesh_rel, lmk_rel, aus = [x.strip() for x in row]
            try:
                record = ManifestRecord(
                    subject=subject,
                    expression=expression,
                    intensity=int(intensity),
                    mesh_path=root / mesh_rel,
                    landmarks_path=root / lmk_rel,
                    aus=_parse_aus(aus),
                )
            except ManifestError as exc:
                raise ManifestError(f"{path}: line {ln}: {exc}") from None
            except ValueError:
                raise ManifestError(f"{path}: line {ln}: non-integer intensity "
                                    f"{intensity!r}") from None
            key = (record.subject, record.expression, record.intensity)
            if key in seen:
                raise ManifestError(f"{path}: line {ln}: duplicate record {key}")
            seen.add(key)
            if check_paths:
                if not record.mesh_path.exists():
                    raise ManifestError(f"{path}: line {ln}: mesh file missing: "
                                        f"{record.mesh_path}")
                if not record.landmarks_path.exists():
                    raise ManifestError(f"{path}: line {ln}: landmark file missing: "
                                        f"{record.landmarks_path}")
            records.append(record)
    return DatasetManifest(records=records, root=root)


def save_manifest(path, records) -> None:
    """Write a manifest CSV with paths relativized to the manifest dir."""
    path = Path(path)
    root = path.parent
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DatasetManifest.HEADER)
        for r in records:
            mesh_rel = Path(r.mesh_path)
            lmk_rel = Path(r.landmarks_path)
            try:
                mesh_rel = mesh_rel.relative_to(root)
                lmk_rel = lmk_rel.relative_to(root)
            except ValueError:
                pass  # keep absolute paths that live outside the manifest dir
            writer.writerow([
                r.subject, r.expression, str(int(r.intensity)),
                mesh_rel.as_posix(), lmk_rel.as_posix(),
                "+".join(str(a) for a in r.aus),
            ])


_BU3DFE_NAME = re.compile(
    rf"^(?P<subject>[FM]\d{{4}})_(?P<expr>{'|'.join(EXPRESSIONS)})(?P<level>\d{{2}})"
)


def scan_corpus_dir(root, levels=None) -> DatasetManifest:
    """Build a manifest from a BU-3DFE-style directory layout.

    Mesh files must match ``<S####>_<EXPR><LL>*.obj`` or ``.ply`` (subject
    id, expression token and two-digit intensity level encoded in the
    name) with landmarks in ``<mesh stem>.lmk.csv``.  ``levels`` filters
    to the given intensity levels (the usual protocol keeps the two
    highest, (3, 4)).  Two meshes of one (subject, expression, level),
    such as ``F0001_AN03.obj`` beside ``F0001_AN03.ply`` or
    ``F0001_AN03_x.obj``, raise :class:`ManifestError` naming both.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    meshes = {}
    for mesh_path in sorted(root.rglob("*")):
        if mesh_path.suffix.lower() not in (".obj", ".ply"):
            continue
        m = _BU3DFE_NAME.match(mesh_path.name)
        if not m:
            continue
        key = (m.group("subject"), m.group("expr"), int(m.group("level")))
        if levels is not None and key[2] not in levels:
            continue
        if key in meshes:
            raise ManifestError(f"{meshes[key]} and {mesh_path}: two meshes of one scan {key}")
        meshes[key] = mesh_path
    records = []
    for (subject, expression, level), mesh_path in meshes.items():
        lmk_path = mesh_path.parent / (mesh_path.stem + ".lmk.csv")
        if not lmk_path.exists():
            raise ManifestError(f"{mesh_path.name}: expected landmark file {lmk_path.name}")
        records.append(ManifestRecord(
            subject=subject,
            expression=expression,
            intensity=level,
            mesh_path=mesh_path,
            landmarks_path=lmk_path,
            aus=(),
        ))
    return DatasetManifest(records=records, root=root)
