"""Workloads of the facespectra benchmark.

Each workload builds its inputs from a seed (the set-up), runs its timed
stages in-process through the user-facing entry point
``facespectra.cli.main`` and checks what they wrote against references
recorded with the benchmark (``references/``).  The seed selects one of
``N_VARIANTS`` recorded input sets, so every seed has a reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import jsonschema
import numpy as np

import facespectra
from facespectra import cli
from facespectra.data import load_manifest
from facespectra.features import save_feature_table
from facespectra.mesh import LandmarkSet, load_landmarks, load_mesh, save_landmarks
from facespectra.patches import PatchConfig
from facespectra.pipeline import compute_basis, compute_feature_tables
from facespectra.synth import SynthConfig, synth_generate

REFERENCES = Path(__file__).resolve().parent / "references"
N_VARIANTS = 8
# Feature tables must match their reference within this tolerance,
# relative to the largest magnitude in the same landmark block.
RTOL = 1e-12
# Synthetic-corpus settings of the acceptance suite.
ACCEPTANCE = {"amplitude": 1.2, "subject_amplitude": 3.5, "jitter": 0.4}


@dataclass
class Stage:
    """One timed ``facespectra`` command."""

    name: str
    seconds: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Rep:
    """One repetition of a workload's timed stages, checked."""

    stages: list
    attempted: int
    failed: int
    problems: list      # output-check mismatches; empty when correct
    missing: Counter    # "label: reason" -> missing patches (featurize)
    digest: str         # sha256 of every output file
    outputs: dict       # what a reference records

    @property
    def wall_s(self) -> float:
        return sum(s.seconds for s in self.stages)

    def stage_s(self, name: str) -> float:
        return sum(s.seconds for s in self.stages if s.name == name)


def run_cli(name: str, argv: list) -> Stage:
    """Time one ``facespectra`` command, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main([str(a) for a in argv])
        seconds = perf_counter() - start
    return Stage(name, seconds, code, out.getvalue(), err.getvalue())


def synthesize(out: Path, synth: dict, variant: int, stride: int) -> Path:
    """Write a seeded synthetic corpus; keep every ``stride``-th landmark."""
    manifest = synth_generate(SynthConfig(seed=variant, **ACCEPTANCE, **synth), out)
    if stride > 1:
        for path in sorted((out / "landmarks").glob("*.csv")):
            lm = load_landmarks(path)
            save_landmarks(path, LandmarkSet(lm.labels[::stride], lm.positions[::stride]))
    return manifest


def describe_corpus(manifest: Path) -> dict:
    records = load_manifest(manifest).records
    mesh = load_mesh(records[0].mesh_path)
    return {
        "scans": len(records),
        "vertices_per_scan": mesh.n_vertices,
        "faces_per_scan": mesh.n_faces,
        "landmarks": list(load_landmarks(records[0].landmarks_path).labels),
    }


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _patch_args(curves, samples, lambdas):
    return ["--curves", curves, "--samples", samples,
            "--lambda-min", lambdas[0], "--lambda-max", lambdas[1]]


def _command_problems(stages, allowed=(0,)):
    return [f"{s.name} exited {s.code}: {s.stderr.strip()[-300:]}"
            for s in stages if s.code not in allowed]


def _error_block(stderr: str) -> list:
    """The ``{"errors": [...]}`` block ``features`` prints on exit 1."""
    for line in reversed(stderr.splitlines()):
        if line.startswith('{"errors"'):
            return json.loads(line)["errors"]
    return []


@dataclass(frozen=True)
class Featurize:
    """``[basis +] features`` over a synthetic corpus."""

    method: str
    k: int
    curves: int
    samples: int
    synth: dict
    jobs: int
    landmark_stride: int = 1
    lambdas: tuple = (5.0, 20.0)

    def setup(self, work: Path, variant: int) -> dict:
        return {"manifest": synthesize(work / "corpus", self.synth, variant,
                                       self.landmark_stride)}

    def describe(self, inputs: dict) -> dict:
        info = describe_corpus(inputs["manifest"])
        n = PatchConfig(*self.lambdas, self.curves, self.samples).n_vertices
        width = 3 * self.k if self.method == "glf" else self.k
        info.update(patch=f"{self.curves}x{self.samples} (n={n})", method=self.method,
                    k=self.k, table_columns=width * len(info["landmarks"]))
        return info

    def execute(self, inputs: dict, out: Path, jobs: int) -> list:
        out.mkdir(parents=True, exist_ok=True)
        patch = _patch_args(self.curves, self.samples, self.lambdas)
        stages, basis = [], []
        if self.method == "glf":
            stages.append(run_cli("basis", ["basis", "--out", out / "basis.fsb", *patch]))
            basis = ["--basis", out / "basis.fsb"]
        stages.append(run_cli("features", [
            "features", "--manifest", inputs["manifest"], *basis, "--method", self.method,
            "--k", self.k, *patch, "--jobs", jobs, "--out", out / "features"]))
        return stages

    def check(self, inputs: dict, stages: list, out: Path, reference) -> Rep:
        scans, labels = inputs["scans"], inputs["landmarks"]
        attempted = scans * len(labels)
        # features exits 1 with an {"errors": [...]} block when a landmark is
        # missing or a scan is skipped, after writing the table
        errors = _error_block(stages[-1].stderr)
        problems = _command_problems(stages[:-1]) + _command_problems(
            stages[-1:], (0, 1) if errors else (0,))
        try:
            X = np.load(out / "features.npy")
            meta = json.loads((out / "features.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"cannot read the feature table: {exc}")
        if problems:
            return Rep(stages, attempted, attempted, problems, Counter(), "", {})
        missing = np.array(meta["missing"], dtype=bool).reshape(X.shape[0], -1)
        counts = Counter(f"{label}: {reason.split(' (landmark')[0]}" for e in errors
                         for label, reason in e.get("missing_patches", {}).items())
        reported = sum(counts.values())
        skipped = scans - X.shape[0]
        if reported != int(missing.sum()):
            problems.append(f"stderr lists {reported} missing patches, "
                            f"the table flags {int(missing.sum())}")
        if (stages[-1].code == 1) != bool(errors):
            problems.append(f"features exited {stages[-1].code} with {len(errors)} errors")
        outputs = {"X": X, "missing": missing.tolist(),
                   "landmark_labels": meta["landmark_labels"]}
        if reference is not None:
            problems += _compare_tables(outputs, reference)
        failed = attempted if problems else int(missing.sum()) + skipped * len(labels)
        return Rep(stages, attempted, failed, problems, counts, digest(sorted(out.iterdir())),
                   outputs)

    def save_reference(self, stem: Path, outputs: dict) -> None:
        np.save(stem.with_suffix(".npy"), outputs["X"])
        meta = {"rtol": RTOL, "missing": outputs["missing"],
                "landmark_labels": outputs["landmark_labels"]}
        stem.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")

    def load_reference(self, stem: Path) -> dict:
        meta = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
        meta["X"] = np.load(stem.with_suffix(".npy"))
        return meta


def _compare_tables(got: dict, ref: dict) -> list:
    if got["landmark_labels"] != ref["landmark_labels"]:
        return ["landmark labels differ from the reference"]
    if got["missing"] != ref["missing"]:
        return ["missing flags differ from the reference"]
    X, R = got["X"], ref["X"]
    if X.shape != R.shape:
        return [f"table shape {X.shape} differs from the reference {R.shape}"]
    blocks = (X.shape[0], len(ref["landmark_labels"]), -1)
    err = np.abs(X - R).reshape(blocks)
    scale = np.abs(R).reshape(blocks).max(axis=2, keepdims=True)
    bad = int((err > ref["rtol"] * scale).sum())
    if bad:
        return [f"{bad} table entries differ from the reference by more than "
                f"rtol={ref['rtol']:g} of their landmark block"]
    return []


@dataclass(frozen=True)
class Evaluate:
    """``evaluate`` (SVM eigenvalue-count sweep, AU FLDA) on feature tables
    built in the set-up."""

    synth: dict
    landmark_stride: int
    curves: int
    samples: int
    coords_k: int
    norms_k: int
    sweep: str
    folds: int
    lambdas: tuple = (5.0, 20.0)
    jobs = 1   # evaluate runs its folds in one process

    def setup(self, work: Path, variant: int) -> dict:
        manifest = synthesize(work / "corpus", self.synth, variant, self.landmark_stride)
        cfg = PatchConfig(*self.lambdas, self.curves, self.samples)
        tables, _ = compute_feature_tables(
            load_manifest(manifest), cfg,
            [("glf", "coords", self.coords_k), ("glf", "norms", self.norms_k)],
            basis=compute_basis(cfg), jobs=2)
        for stem, table in zip(("coords", "norms"), tables):
            save_feature_table(work / stem, table)
        return {"manifest": manifest, "coords": work / "coords", "norms": work / "norms",
                "setup_missing_patches": int(tables[0].missing.sum()),
                "table_columns": [t.X.shape[1] for t in tables]}

    def describe(self, inputs: dict) -> dict:
        info = describe_corpus(inputs["manifest"])
        info.update(patch=f"{self.curves}x{self.samples}",
                    tables=f"coords k={self.coords_k}, norms k={self.norms_k}")
        return info

    def execute(self, inputs: dict, out: Path, jobs: int) -> list:
        out.mkdir(parents=True, exist_ok=True)
        folds = ["--folds", self.folds]
        return [
            run_cli("evaluate-sweep", [
                "evaluate", "--features", inputs["coords"], "--task", "expressions",
                "--classifier", "svm", "--sweep", self.sweep, *folds,
                "--out", out / "sweep.json"]),
            run_cli("evaluate-aus", [
                "evaluate", "--features", inputs["norms"], "--task", "aus",
                "--classifier", "flda", *folds, "--out", out / "aus.json"]),
        ]

    def check(self, inputs: dict, stages: list, out: Path, reference) -> Rep:
        schema = json.loads((Path(facespectra.__file__).parent / "report_schema.json")
                            .read_text(encoding="utf-8"))
        files = [out / "sweep.json", out / "aus.json"]
        problems, outputs, failed = [], {}, 0
        for stage, path, key in zip(stages, files, ("sweep", "aus")):
            found = _command_problems([stage])
            if not found:
                try:
                    report = json.loads(path.read_text(encoding="utf-8"))
                    jsonschema.validate(report, schema)
                    outputs[key] = _report_outcome(report)
                except (OSError, ValueError, jsonschema.ValidationError) as exc:
                    found.append(f"{stage.name}: {type(exc).__name__}: {exc}"[:300])
            if not found and reference is not None and outputs[key] != reference[key]:
                found.append(f"{stage.name}: results differ from the reference")
            if found:
                failed += self.folds
            problems += found
        return Rep(stages, len(stages) * self.folds, failed, problems, Counter(),
                   "" if problems else digest(sorted(out.iterdir())), outputs)

    def save_reference(self, stem: Path, outputs: dict) -> None:
        stem.with_suffix(".json").write_text(json.dumps(outputs, indent=1),
                                             encoding="utf-8")

    def load_reference(self, stem: Path) -> dict:
        return json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))


def _report_outcome(report: dict) -> dict:
    """The fields of an evaluate report that must equal the reference:
    sweep grid and fold accuracies, or per-AU F1 and their weighted mean."""
    res = report["results"]
    if report["task"] == "sweep":
        return {"k_values": res["k_values"],
                "fold_accuracies": {k: r["fold_accuracies"] for k, r in res["per_k"].items()}}
    return {"weighted_f1": res["weighted_f1"], "folds": res["folds"],
            "f1": {str(r["au"]): r["f1"] for r in res["aus"]}}


_TINY_PATCH = {"curves": 4, "samples": 12, "lambdas": (6.0, 14.0)}
_TINY_SYNTH = {"subjects": 3, "expressions": ("HA",), "levels": (2,), "resolution": 48}

# name -> {scale: workload}.  "full" is what the benchmark measures; "tiny"
# (the 4x12 patch of the test suite, 3 subjects) is for the self-test.
WORKLOADS = {
    # Level-curve tracing and mesh handling on near-real-scan meshes; the
    # spectral work is one 301x50 projection per patch.
    "glf-hires": {
        "full": Featurize(
            "glf", k=50, curves=15, samples=20, jobs=1,
            synth={"subjects": 1, "expressions": ("HA", "SU"), "levels": (2,),
                   "resolution": 160}),
        "tiny": Featurize("glf", k=20, synth=_TINY_SYNTH, jobs=1,
                          **_TINY_PATCH),
    },
    # Shape-DNA assembly and the dense n=751 eigensolve, through the worker
    # pool: two chunks of 4 scans, so the slower worker sets the time.
    "dna751-jobs2": {
        "full": Featurize(
            "shapedna", k=50, curves=15, samples=50, jobs=2,
            landmark_stride=8,
            synth={"subjects": 1, "expressions": ("AN", "DI", "FE", "HA"),
                   "levels": (1, 2), "resolution": 64}),
        "tiny": Featurize("shapedna", k=20, synth=_TINY_SYNTH, jobs=2,
                          landmark_stride=4, **_TINY_PATCH),
    },
    # Classification only (kernel build, SMO, prediction, FLDA); the feature
    # tables are built in the set-up, which is not timed.
    "eval-acc": {
        "full": Evaluate(
            synth={"subjects": 10, "levels": (1, 2), "resolution": 48},
            landmark_stride=12, curves=15, samples=20, coords_k=200, norms_k=50,
            sweep="10,30,50,100,200", folds=10),
        "tiny": Evaluate(
            synth={"subjects": 3, "levels": (1, 2), "resolution": 48},
            landmark_stride=12, coords_k=20, norms_k=10, sweep="5,10,20", folds=3,
            **_TINY_PATCH),
    },
}


def reference_stem(name: str, scale: str, variant: int) -> Path:
    return REFERENCES / name / f"{scale}-v{variant}"
