"""The basis, feature tables and patch archives are all ``.npy`` + ``.json``
pairs read through one reader: a spoiled file raises ValueError starting
with that file's path, and a spoiled field also names the field."""

import json

import numpy as np
import pytest

from facespectra.artifacts import npy_json_paths
from facespectra.features import FeatureTable, load_feature_table, save_feature_table
from facespectra.patches import PatchConfig, load_patch_archive, save_patch_archive
from facespectra.pipeline import compute_basis
from facespectra.spectral import load_basis, save_basis

CFG = PatchConfig(5, 20, 3, 8)


def _save_basis(stem):
    save_basis(stem, compute_basis(CFG, 10))


def _save_table(stem):
    save_feature_table(stem, FeatureTable(
        X=np.arange(12.0).reshape(2, 6), subjects=["S0", "S1"], expressions=["AN", "HA"],
        intensities=[1, 2], aus=[(1,), (12,)], missing=np.zeros((2, 2), dtype=bool),
        landmark_labels=["A", "B"], method="glf", mode="norms", k=3,
        config=CFG.to_dict(), config_hash=CFG.connectivity_hash()))


def _save_archive(stem):
    save_patch_archive(stem, np.ones((2, CFG.n_vertices, 3)), ["A", "B"], [False, True], CFG)


# reader name -> (writer, reader, a required field, a wrong-typed value for it)
READERS = {
    "basis": (_save_basis, load_basis, "eigenvalues", 3.5),
    "table": (_save_table, load_feature_table, "subjects", None),
    "archive": (_save_archive, load_patch_archive, "labels", 7),
}


def _edit_json(path, edit):
    meta = json.loads(path.read_text())
    path.write_text(json.dumps(edit(meta)))


def _pop(name):
    return lambda meta: {k: v for k, v in meta.items() if k != name}


# case -> (file spoiled, how, whether the message names the required field)
CASES = {
    "zero-byte-npy": (".npy", lambda p, name, bad: p.write_bytes(b""), False),
    "truncated-npy": (".npy", lambda p, name, bad: p.write_bytes(p.read_bytes()[:-8]), False),
    "broken-json": (".json", lambda p, name, bad: p.write_text('{"config_hash": '), False),
    "non-json-sidecar": (".json", lambda p, name, bad: p.write_text("{not json"), False),
    "json-list": (".json", lambda p, name, bad: _edit_json(p, lambda m: list(m)), False),
    "field-missing": (".json", lambda p, name, bad: _edit_json(p, _pop(name)), True),
    "field-wrong-type": (".json", lambda p, name, bad: _edit_json(p, lambda m: {**m, name: bad}),
                         True),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("reader", READERS)
def test_spoiled_artifact_names_file_and_field(tmp_path, reader, case):
    save, load, name, bad = READERS[reader]
    suffix, spoil, names_field = CASES[case]
    stem = tmp_path / reader
    save(stem)
    spoiled = npy_json_paths(stem)[suffix == ".json"]
    spoil(spoiled, name, bad)
    with pytest.raises(ValueError) as exc:
        load(stem)
    assert str(exc.value).startswith(f"{spoiled}: ")
    if names_field:
        assert str(exc.value).startswith(f"{spoiled}: field {name!r}")


@pytest.mark.parametrize("edit, field", [
    (lambda m: {**m, "config": {k: v for k, v in m["config"].items() if k != "lambda_max"}},
     "config"),
    (lambda m: {**m, "missing": [False]}, "missing"),
    (_pop("missing"), "missing"),
], ids=["config-lacks-lambda-max", "missing-short", "no-missing"])
def test_patch_archive_sidecar_field_named(tmp_path, edit, field):
    _save_archive(tmp_path / "scan")
    _edit_json(tmp_path / "scan.json", edit)
    with pytest.raises(ValueError) as exc:
        load_patch_archive(tmp_path / "scan")
    assert str(exc.value).startswith(f"{tmp_path / 'scan.json'}: field {field!r}")


@pytest.mark.parametrize("edit, field", [
    (lambda m: {**m, "method": "curves"}, "method"),
    (lambda m: {**m, "mode": "bogus"}, "mode"),
    (lambda m: {**m, "mode": "eigenvalues"}, "mode"),
    (lambda m: {**m, "method": "shapedna"}, "mode"),
], ids=["unknown-method", "unknown-mode", "glf-eigenvalues", "shapedna-norms"])
def test_feature_table_sidecar_descriptor_named(tmp_path, edit, field):
    """A table whose method, or mode for that method, no featurization
    writes is refused with the field named: its block width is unknown."""
    _save_table(tmp_path / "table")
    _edit_json(tmp_path / "table.json", edit)
    with pytest.raises(ValueError) as exc:
        load_feature_table(tmp_path / "table")
    assert str(exc.value).startswith(f"{tmp_path / 'table.json'}: field {field!r}")
