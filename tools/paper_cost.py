#!/usr/bin/env python3
"""Time and peak memory of each stage of a whole run at the paper's size.

    PYTHONPATH=src python3 tools/paper_cost.py --subjects 100 --dna-subjects 10 --jobs 2

It runs synth -> basis -> features (GLF coords and Shape-DNA) -> evaluate
(expressions and an eigenvalue sweep of each table) through ``cli.main``
in a temporary directory that it removes, on one BLAS thread (set before
numpy loads).  The synthetic set has BU-3DFE's layout, 6 expressions x 4
levels per subject, so 100 subjects give 2,400 scans.  Both methods use
k = 50, or the largest k the patch allows, and the sweep runs at k/5,
2k/5, ..., k (rounded down, at least 1).  Shape-DNA featurizes and
evaluates the first ``--dna-subjects`` subjects (default: all); its line
then also gives the seconds scaled to ``--subjects``, an extrapolation,
not a measurement.

It prints one JSON line per stage: the seconds, the running peak RSS in
MiB of the process and of its largest finished child (a pool worker with
``--jobs`` above 1), for features the scans with missing patches or
errors, and the
sha256 of what the stage wrote: each table's ``.npy``, each sidecar with
the temporary directory replaced by a fixed token, and each report's
``results`` section.  Two checkouts can be compared by running it with
each one's ``src`` on ``PYTHONPATH``.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from facespectra.cli import main as cli  # noqa: E402
from facespectra.data import load_manifest, save_manifest  # noqa: E402
from facespectra.patches import PatchConfig  # noqa: E402
from facespectra.synth import SynthConfig  # noqa: E402

LEVELS, K = 4, 50


def peak_mib(who) -> float:
    return round(resource.getrusage(who).ru_maxrss / 1024, 1)   # KiB on Linux


def file_digest(path: Path, root: Path) -> str:
    """sha256 of a file, a ``.json`` one with ``root`` replaced by a token."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = data.replace(str(root).encode(), b"<tmp>")
    return hashlib.sha256(data).hexdigest()


def tree_digest(top: Path) -> str:
    """sha256 over every file under ``top``: relative path, then contents."""
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def results_digest(report: Path) -> str:
    results = json.loads(report.read_text(encoding="utf-8"))["results"]
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--subjects", type=int, default=100)
    p.add_argument("--resolution", type=int, default=SynthConfig.resolution)
    p.add_argument("--curves", type=int, default=PatchConfig.n_curves)
    p.add_argument("--samples", type=int, default=PatchConfig.samples_per_curve)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dna-subjects", dest="dna_subjects", type=int, default=None,
                   help="subjects that Shape-DNA featurizes and evaluates (default: all)")
    args = p.parse_args(argv)
    dna_subjects = args.subjects if args.dna_subjects is None else args.dna_subjects
    if not 2 <= dna_subjects <= args.subjects:
        p.error("need 2 <= --dna-subjects <= --subjects")
    patch = ["--curves", str(args.curves), "--samples", str(args.samples)]
    k = min(K, args.curves * args.samples)   # Shape-DNA has n - 1 = curves * samples values
    sweep = ",".join(str(x) for x in sorted({max(1, k * i // 5) for i in range(1, 6)}))

    def stage(name, cli_args, outputs, written=None, **extra):
        """Run one ``facespectra`` command, its own output kept back unless it
        fails, and return its line.  ``features`` exits 1 when a scan had
        missing patches, after writing its table (``written``)."""
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli(cli_args)
        seconds = time.perf_counter() - start
        if rc != 0 and not (rc == 1 and written is not None and written.exists()):
            sys.stderr.write(err.getvalue())
            raise SystemExit(f"{name}: facespectra {' '.join(cli_args)} exited {rc}")
        return {"stage": name, **extra, "seconds": round(seconds, 2),
                "peak_rss_mib": peak_mib(resource.RUSAGE_SELF),
                "children_peak_rss_mib": peak_mib(resource.RUSAGE_CHILDREN),
                "sha256": outputs()}

    def emit(line):
        print(json.dumps(line), flush=True)

    with tempfile.TemporaryDirectory(prefix="paper_cost_") as tmp:
        root = Path(tmp)
        data, manifest = root / "data", root / "data" / "manifest.csv"
        emit(stage("synth", ["synth", "--out", str(data), "--subjects", str(args.subjects),
                             "--levels", str(LEVELS), "--resolution", str(args.resolution)],
                   lambda: {"data": tree_digest(data)}, subjects=args.subjects))
        emit(stage("basis", ["basis", "--out", str(root / "basis")] + patch,
                   lambda: {f"basis{s}": file_digest(root / f"basis{s}", root)
                            for s in (".npy", ".json")}))
        dna_manifest = manifest
        if dna_subjects < args.subjects:
            records = load_manifest(manifest).records
            keep = sorted({r.subject for r in records})[:dna_subjects]
            dna_manifest = data / "manifest_dna.csv"
            save_manifest(dna_manifest, [r for r in records if r.subject in keep])
        for method, extra, listed, subjects in (
                ("glf", ["--basis", str(root / "basis"), "--mode", "coords"], manifest,
                 args.subjects),
                ("shapedna", [], dna_manifest, dna_subjects)):
            table = root / method
            line = stage("features", ["features", "--manifest", str(listed), "--method", method,
                                      "--k", str(k), "--jobs", str(args.jobs),
                                      "--out", str(table)] + extra + patch,
                         lambda: {f"{method}{s}": file_digest(root / f"{method}{s}", root)
                                  for s in (".npy", ".json")},
                         written=root / f"{method}.npy", method=method, subjects=subjects)
            sidecar = json.loads((root / f"{method}.json").read_text(encoding="utf-8"))
            line["scans_with_errors"] = len(sidecar["errors"])
            if subjects < args.subjects:
                line["extrapolated_seconds"] = round(line["seconds"] * args.subjects / subjects, 1)
            emit(line)
            for task, task_args in (("expressions", []), ("sweep", ["--sweep", sweep])):
                report = root / f"{method}_{task}.json"
                emit(stage("evaluate", ["evaluate", "--features", str(table), "--out", str(report),
                                        "--folds", str(min(10, subjects))] + task_args,
                           lambda: {report.name: results_digest(report)},
                           method=method, task=task, subjects=subjects))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
