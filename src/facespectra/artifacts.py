"""Artifact file pairs: an array in ``<stem>.npy`` plus a JSON object in
``<stem>.json``, the format of the shared basis, feature tables and patch
archives.  A file that does not parse or holds a nan or inf, and a field
that is absent or does not convert, raise ValueError starting with its path."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def npy_json_paths(path) -> tuple[Path, Path]:
    """``(<stem>.npy, <stem>.json)`` for a stem given with or without either suffix."""
    path = Path(path)
    base = path.with_suffix("") if path.suffix in (".npy", ".json") else path
    return Path(f"{base}.npy"), Path(f"{base}.json")


def save_npy_json(path, arr: np.ndarray, meta: dict) -> None:
    """Write ``arr`` and ``meta`` as the :func:`npy_json_paths` pair of ``path``."""
    npy, sidecar = npy_json_paths(path)
    np.save(npy, arr)
    sidecar.write_text(json.dumps(meta, indent=1), encoding="utf-8")


def read_npy_json(path):
    """``(npy path, array, field)`` of a :func:`npy_json_paths` pair.

    ``field(name, convert, rows=None, required=True)`` returns
    ``convert(meta.get(name))``; a required field that is absent, or one
    that does not convert or (given ``rows``) does not hold ``rows``
    entries, raises ValueError naming the ``.json`` file and the field.
    """
    npy, sidecar = npy_json_paths(path)
    reading = npy
    try:
        arr = np.load(npy)
        reading = sidecar
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except (ValueError, EOFError) as exc:   # EOFError: a zero-byte .npy
        raise ValueError(f"{reading}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: not a JSON object")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():   # integers are always finite
        raise ValueError(f"{npy}: non-finite entry {np.argwhere(~np.isfinite(arr))[0].tolist()}")

    def field(name, convert, rows=None, required=True):
        if required and name not in meta:
            raise ValueError(f"{sidecar}: field {name!r} is missing")
        try:
            value = convert(meta.get(name))
        except KeyError as exc:
            raise ValueError(f"{sidecar}: field {name!r} lacks key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{sidecar}: field {name!r}: {exc}") from None
        if rows is not None and len(value) != rows:
            raise ValueError(f"{sidecar}: field {name!r} has {len(value)} rows "
                             f"for {rows} samples")
        return value

    return npy, arr, field
