#!/usr/bin/env python3
"""Time and peak memory of one SVM evaluation on a random table of the paper's size.

    PYTHONPATH=src python3 tools/eval_memory.py --subjects 100 --task sweep

The table has BU-3DFE's layout: 6 expressions x 4 levels per subject, and
68 landmarks x GLF coords at k=50, so 100 subjects give 2,400 rows of
10,200 columns, filled with seeded normal values; each row holds each of
the 17 AUs with probability 0.3, seeded apart from the values.
``expressions`` runs ``evaluate_expressions`` on all columns, ``sweep``
runs ``eigen_sweep`` at k = 10,20,30,40,50 and ``aus`` runs
``evaluate_aus`` over the 17 AUs on all columns, each with 10
identity-disjoint folds of SVM rbf on one BLAS thread (set before numpy
loads).  It prints one JSON line: the
task, the subjects, the seconds of the evaluation, the process's peak RSS
in MiB and the sha256 of the report section, so that two checkouts can be
compared by running it with each one's ``src`` on ``PYTHONPATH``.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from facespectra.classify import AU_SET, EXPRESSIONS  # noqa: E402
from facespectra.experiments import (ClassifierConfig, au_report_section,  # noqa: E402
                                     eigen_sweep, evaluate_aus, evaluate_expressions,
                                     expression_report_section, sweep_report_section)
from facespectra.features import FeatureTable  # noqa: E402

LEVELS, LANDMARKS, K = 4, 68, 50
SWEEP = (10, 20, 30, 40, 50)
AU_RATE = 0.3


def random_table(subjects: int) -> FeatureTable:
    rows = [(f"S{s:03d}", e) for s in range(subjects) for e in EXPRESSIONS
            for _ in range(LEVELS)]
    n = len(rows)
    has_au = np.random.default_rng(1).random((n, len(AU_SET))) < AU_RATE
    return FeatureTable(
        X=np.random.default_rng(0).standard_normal((n, LANDMARKS * 3 * K)),
        subjects=[s for s, _ in rows], expressions=[e for _, e in rows],
        intensities=[1 + i % LEVELS for i in range(n)],
        aus=[tuple(np.array(AU_SET)[row].tolist()) for row in has_au],
        missing=np.zeros((n, LANDMARKS), dtype=bool),
        landmark_labels=[f"L{l}" for l in range(LANDMARKS)],
        method="glf", mode="coords", k=K)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--subjects", type=int, default=100)
    p.add_argument("--task", choices=("expressions", "sweep", "aus"), default="expressions")
    args = p.parse_args(argv)
    table = random_table(args.subjects)
    svm = ClassifierConfig(kind="svm", kernel="rbf")
    start = time.perf_counter()
    if args.task == "sweep":
        section = sweep_report_section(eigen_sweep(table, SWEEP, classifier=svm, folds=10))
    elif args.task == "aus":
        section = au_report_section(evaluate_aus(table.X, table.aus, table.subjects,
                                                 classifier=svm, folds=10))
    else:
        section = expression_report_section(evaluate_expressions(
            table.X, table.expressions, table.subjects, classifier=svm, folds=10))
    seconds = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # KiB on Linux
    digest = hashlib.sha256(json.dumps(section, sort_keys=True).encode()).hexdigest()
    print(json.dumps({"task": args.task, "subjects": args.subjects,
                      "seconds": round(seconds, 2), "peak_rss_mib": round(peak_kib / 1024, 1),
                      "report_sha256": digest}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
