"""Cross-validated expression and Action-Unit experiments.

Fold by fold: standardize features with training statistics, train the
requested classifier, predict the held-out subjects.  What does not
depend on the labels is built once per fold for all its labellings (and
for all the eigenvalue counts of a sweep), and under SVM all of them,
for consecutive folds whose train Grams fit a byte budget, train in one
batched SMO call.  Expression results report
per-fold accuracies and a row-averaged confusion matrix; AU results
report per-AU precision/recall/F1 over the pooled test folds plus the
positives-weighted average.  Reports serialize to JSON and are
validated against the schema shipped with the package.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, classify
from .classify import (
    AU_SET,
    identity_disjoint_folds,
    standardize_apply,
    standardize_fit,
)
from .features import FeatureTable, truncation_columns

FOLDS, SEED = 10, 0   # identity-disjoint cross-validation defaults of every evaluation
# Bytes of train Grams that consecutive SVM folds may hold for one batched
# SMO call.  It packs 2 folds of a 10-subject sweep over 5 k values (5
# Grams of 108 rows per fold) and leaves one fold per call at the paper's
# size (2,160 training rows), where a second fold's kernels would raise
# the peak memory.
GRAM_BUDGET = 1 << 20


@dataclass
class ClassifierConfig:
    KINDS = ("svm", "flda")
    KERNELS = ("rbf", "linear")  # svm only
    kind: str = "svm"
    kernel: str = "rbf"
    C: float = 1.0
    gamma: float | None = None   # None -> 1/d
    reg: float = 1e-3            # flda regularization factor

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.kernel not in self.KERNELS:
            raise ValueError(f"kernel must be one of {self.KERNELS}, got {self.kernel!r}")
        for name in ("C", "gamma", "reg"):
            value = getattr(self, name)
            if name == "gamma" and value is None:
                continue                 # 1/d
            if value is None or not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def _fold_rows(X, missing, train, test):
    """A fold's training and test rows, standardized in place with the
    training rows' statistics.  ``missing`` is None or the (S, N) flags
    of the N equal landmark blocks of X's columns: each missing block is
    first filled with the mean of that block over the training rows where
    the landmark is present (a landmark missing from every training row
    keeps its values)."""
    Xtr, Xte = X[train], X[test]
    if missing is not None:
        miss_tr, miss_te = missing[train], missing[test]
        width = X.shape[1] // missing.shape[1]
        for l in np.flatnonzero(miss_tr.any(axis=0) | miss_te.any(axis=0)):
            present = ~miss_tr[:, l]
            if present.any():
                block = slice(l * width, (l + 1) * width)
                fill = Xtr[present, block].mean(axis=0)
                Xtr[miss_tr[:, l], block] = fill
                Xte[miss_te[:, l], block] = fill
    mu, sigma = standardize_fit(Xtr)
    return standardize_apply(Xtr, mu, sigma), standardize_apply(Xte, mu, sigma)


def _missing_blocks(X, missing):
    """The (S, N) missing flags as a bool array, checked against X, or
    None when nothing is missing."""
    if missing is None:
        return None
    missing = np.asarray(missing, dtype=bool)
    if missing.ndim != 2 or missing.shape[0] != X.shape[0] or not missing.shape[1] or (
            X.shape[1] % missing.shape[1]):
        raise ValueError(f"missing flags of shape {missing.shape} do not split the "
                         f"{X.shape} feature matrix into landmark blocks")
    return missing if missing.any() else None


def _training_failed(entry: dict, exc: Exception) -> RuntimeError:
    au = f" for AU {entry['au']}" if "au" in entry else ""
    return RuntimeError(f"training failed in fold {entry['fold']}{au}: {exc}")


def _outcome(entry: dict, predict):
    """``predict()`` as an array, the reason when its SMO solve did not
    converge, or a ``RuntimeError`` naming the fold (and AU) of ``entry``."""
    try:
        return np.asarray(predict())
    except classify.ConvergenceError as exc:
        return str(exc)
    except Exception as exc:
        raise _training_failed(entry, exc) from exc


def _predictions(cfg: ClassifierConfig, X, missing, splits, jobs, column_sets=(None,)):
    """For each column set (an index array into X's columns, or None for
    all of them) a list holding, for each job ``(fold, training labels,
    entry)``, the fold's test-row labels under ``cfg``'s classifier
    trained on the fold's training rows, or, when its SMO solve did not
    converge, the reason as a string.  Any other failure raises naming
    the fold and, for an AU, the AU.

    The folds that have jobs are taken in order, and each is standardized
    once (:func:`_fold_rows`) for all its jobs and column sets.  FLDA
    fits every job of a column set on its span.  SVM builds each column
    set's train-by-train and test-by-train kernels (gamma from its column
    count).  Consecutive folds whose train Grams fit :data:`GRAM_BUDGET`
    bytes together train every (fold, column set, job) in one batched SMO
    call (:func:`_train_pack`); a fold whose Grams alone exceed it trains
    alone.  Whether a fold joins the pack is decided from its training
    row count before its kernels are built, so at most one fold's rows
    and one pack's kernels and models are held at a time.
    """
    fold_jobs = {}
    for n, (f, _, _) in enumerate(jobs):
        fold_jobs.setdefault(f, []).append(n)
    out = [[None] * len(jobs) for _ in column_sets]
    pack, held = [], 0                      # SVM: (members, kernels) of untrained folds
    for f, members in fold_jobs.items():
        first = jobs[members[0]][2]
        if cfg.kind == "svm":
            gram_bytes = len(column_sets) * len(splits[f][0]) ** 2 * 8
            if pack and held + gram_bytes > GRAM_BUDGET:
                _train_pack(cfg, jobs, pack, out)
                pack, held = [], 0
            held += gram_bytes
        kernels = []                        # SVM: per column set, (train, test) kernels
        try:
            Xtr, Xte = _fold_rows(X, missing, *splits[f])
        except Exception as exc:
            raise _training_failed(first, exc) from exc
        for c, cols in enumerate(column_sets):
            tr, te = (Xtr, Xte) if cols is None else (Xtr[:, cols], Xte[:, cols])
            try:
                if cfg.kind == "svm":
                    gamma = classify.kernel_gamma(cfg.kernel, cfg.gamma, tr.shape[1])
                    kernels.append((classify.kernel_matrix(tr, tr, cfg.kernel, gamma),
                                    classify.kernel_matrix(te, tr, cfg.kernel, gamma)))
                    continue
                span = classify.flda_span(tr)
            except Exception as exc:
                raise _training_failed(first, exc) from exc
            for n in members:
                _, labels, entry = jobs[n]
                out[c][n] = _outcome(entry, lambda: classify.flda_predict(
                    classify.flda_train(tr, labels, reg=cfg.reg, span=span), te))
        Xtr = Xte = tr = te = span = None   # released before the next fold or SMO call
        if kernels:
            pack.append((members, kernels))
    if pack:
        _train_pack(cfg, jobs, pack, out)
    return out


def _train_pack(cfg: ClassifierConfig, jobs, pack, out) -> None:
    """Train the SVM jobs of a pack of folds, each ``(members, per column
    set (train, test) kernels)``, in one ``svm_train_folds`` call, and
    write each job's test-row labels, per column set, into ``out``."""
    models = iter(classify.svm_train_folds(
        [(jobs[n][1], train) for members, kernels in pack for train, _ in kernels
         for n in members], C=cfg.C))
    for members, kernels in pack:
        for c, (_, test) in enumerate(kernels):
            for n in members:
                model = next(models)
                out[c][n] = _outcome(jobs[n][2], lambda: classify.svm_predict(
                    _raised(model), test))


def _raised(model):
    if isinstance(model, Exception):
        raise model
    return model


# ---------------------------------------------------------------------------
# Confusion matrices

@dataclass
class ConfusionMatrix:
    labels: list
    counts: np.ndarray    # (C, C) pooled counts
    percent: np.ndarray   # (C, C), each row sums to 100

    def as_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "counts": self.counts.astype(int).tolist(),
            "percent": [[round(float(x), 4) for x in row] for row in self.percent],
        }


def _fold_confusion(labels, y_true, y_pred):
    index = {c: i for i, c in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        counts[index[t], index[p]] += 1
    return counts


# ---------------------------------------------------------------------------
# Expression experiment

@dataclass
class ExpressionResult:
    classes: list
    fold_accuracies: list        # trained folds only
    mean_accuracy: float
    confusion: ConfusionMatrix
    n_samples: int
    folds: int
    skipped: list                # dicts: fold, reason (untrainable folds)


def _flda_short_class(y_train):
    """Why FLDA cannot fit these training labels although they hold two
    classes (one class has a single sample), or None."""
    classes, counts = np.unique(y_train, return_counts=True)
    if len(classes) > 1 and counts.min() < 2:
        return (f"flda needs 2 training samples per class, class "
                f"{str(classes[counts.argmin()])!r} has 1")
    return None


def evaluate_expressions(X: np.ndarray, expressions, subjects,
                         classifier: ClassifierConfig | None = None,
                         folds: int = FOLDS, seed: int = SEED,
                         missing=None) -> ExpressionResult:
    """Identity-disjoint k-fold evaluation of the 6-class expression task.

    Confusion percentages are computed per fold and averaged row-wise
    over the folds in which the row's class occurs; counts are pooled.

    ``missing`` is the table's (S, N) missing-patch flags, or None: each
    missing landmark block is filled with its training-fold mean over the
    rows where the landmark is present before the fold is standardized.

    A fold is skipped and recorded with its reason under FLDA when a
    training class has a single sample, and under SVM when an SMO solve
    does not converge, with a reason that names the failing class pair;
    accuracies and the confusion matrix cover the other folds.  Any other
    training failure, such as a fold with one training class, raises
    naming the fold.
    """
    (result,) = _expression_results(X, expressions, subjects, classifier, folds, seed,
                                    missing, (None,))
    return result


def _expression_results(X, expressions, subjects, classifier, folds, seed, missing,
                        column_sets):
    """:func:`evaluate_expressions` of X restricted to each column set
    (None: all columns), on one set of folds standardized once each."""
    classifier = classifier or ClassifierConfig()
    X = np.asarray(X, dtype=np.float64)
    missing = _missing_blocks(X, missing)
    y = np.asarray([str(e) for e in expressions])
    classes = sorted(set(y.tolist()))
    splits = identity_disjoint_folds(subjects, folds, seed)
    short = [_flda_short_class(y[train]) if classifier.kind == "flda" else None
             for train, _ in splits]
    jobs = [(f, y[train], {"fold": f}) for f, (train, _) in enumerate(splits) if not short[f]]
    return [_expression_result(classes, y, splits, short, iter(preds))
            for preds in _predictions(classifier, X, missing, splits, jobs, column_sets)]


def _expression_result(classes, y, splits, short, preds) -> ExpressionResult:
    """Accuracies and confusion over the folds: ``short`` holds each
    fold's FLDA reason or None, and ``preds`` yields the labels or reason
    of each fold that is not short."""
    accs = []
    pooled = np.zeros((len(classes), len(classes)), dtype=np.int64)
    pct_sum = np.zeros((len(classes), len(classes)), dtype=np.float64)
    pct_n = np.zeros(len(classes), dtype=np.int64)
    skipped = []
    for f, (_, test) in enumerate(splits):
        pred = short[f] or next(preds)
        if isinstance(pred, str):
            skipped.append({"fold": f, "reason": pred})
            continue
        accs.append(float((pred == y[test]).mean()))
        counts = _fold_confusion(classes, y[test], pred)
        pooled += counts
        sums = counts.sum(axis=1)
        has_rows = sums > 0
        pct_sum[has_rows] += 100.0 * counts[has_rows] / sums[has_rows, None]
        pct_n += has_rows
    if not accs:
        raise RuntimeError(f"no fold could be trained: {skipped[0]['reason']} in fold 0")
    confusion = ConfusionMatrix(classes, pooled, pct_sum / np.maximum(pct_n, 1)[:, None])
    return ExpressionResult(
        classes=classes,
        fold_accuracies=accs,
        mean_accuracy=float(np.mean(accs)),
        confusion=confusion,
        n_samples=len(y),
        folds=len(splits),
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Action-Unit experiment

@dataclass
class AUResult:
    rows: list                   # dicts: au, precision, recall, f1, positives
    weighted_f1: float
    skipped: list                # dicts: au, fold, reason (untrainable folds)
    fold_count: int


def evaluate_aus(X: np.ndarray, au_sets, subjects,
                 classifier: ClassifierConfig | None = None,
                 folds: int = FOLDS, seed: int = SEED, aus=AU_SET, missing=None) -> AUResult:
    """One independent binary classifier per AU; F1 per AU over the pooled
    test folds, averaged with per-AU positive counts as weights.

    An AU with zero positive training samples in a fold is skipped for
    that fold and recorded with that reason.  FLDA needs two training
    samples per class, so under FLDA a fold with exactly one positive or
    one negative is skipped too, recorded with the counts as its reason,
    and so is an (AU, fold) whose SMO solve does not converge.

    Each AU is a "pos"/"neg" labelling of its fold, so a fold is
    standardized once for all its AUs, and its kernels or span are built
    once, or not at all when every AU is skipped or constant.  Under SVM
    every AU of a fold trains in one batched SMO call, shared with the
    folds packed with it (:func:`_predictions`).  ``missing`` fills
    missing landmark blocks as in :func:`evaluate_expressions`.
    """
    classifier = classifier or ClassifierConfig()
    X = np.asarray(X, dtype=np.float64)
    missing = _missing_blocks(X, missing)
    present = [set(int(a) for a in s) for s in au_sets]
    splits = identity_disjoint_folds(subjects, folds, seed)
    ybins = [np.array([1.0 if au in s else -1.0 for s in present]) for au in aus]
    counts = [np.zeros(3, dtype=np.int64) for _ in aus]     # tp, fp, fn
    skipped = [[] for _ in aus]
    # per (fold, AU), fold by fold: the entry, and what to do with it
    plan, jobs = [], []
    for f, (train, _) in enumerate(splits):
        for a, au in enumerate(aus):
            entry = {"au": int(au), "fold": f}
            y_train = ybins[a][train]
            pos = int((y_train > 0).sum())
            neg = len(train) - pos
            if not pos:
                plan.append((a, f, {**entry, "reason": "no positive training sample"}, "skip"))
            elif classifier.kind == "flda" and 1 in (pos, neg):
                reason = (f"flda needs 2 training samples per class, "
                          f"got {pos} positive and {neg} negative")
                plan.append((a, f, {**entry, "reason": reason}, "skip"))
            elif not neg:
                # an AU present in every training sample has a constant predictor
                plan.append((a, f, entry, "constant"))
            else:
                plan.append((a, f, entry, "train"))
                jobs.append((f, np.where(y_train > 0, "pos", "neg"), entry))
    (preds,) = _predictions(classifier, X, missing, splits, jobs)
    preds = iter(preds)
    for a, f, entry, action in plan:
        test = splits[f][1]
        if action == "skip":
            skipped[a].append(entry)
            continue
        pred = np.full(len(test), "pos") if action == "constant" else next(preds)
        if isinstance(pred, str):
            skipped[a].append({**entry, "reason": pred})
            continue
        hit, truth = pred == "pos", ybins[a][test] > 0
        counts[a] += [(hit & truth).sum(), (hit & ~truth).sum(), (~hit & truth).sum()]
    rows = []
    for a, au in enumerate(aus):
        tp, fp, fn = counts[a].tolist()
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        rows.append({
            "au": int(au),
            "positives": int((ybins[a] > 0).sum()),
            "precision": round(precision, 6),
            "recall": round(recall, 6),
            "f1": round(f1, 6),
        })
    weights = np.array([r["positives"] for r in rows], dtype=np.float64)
    f1s = np.array([r["f1"] for r in rows], dtype=np.float64)
    weighted = float((weights * f1s).sum() / weights.sum()) if weights.sum() else 0.0
    return AUResult(rows=rows, weighted_f1=weighted,
                    skipped=[entry for entries in skipped for entry in entries],
                    fold_count=len(splits))


# ---------------------------------------------------------------------------
# Eigenvalue-count sweep and method comparison

@dataclass
class SweepResult:
    k_values: list
    per_k: dict                  # k -> ExpressionResult


def check_sweep(k_values, k_max: int) -> list:
    """``k_values`` as ints; ValueError unless there is at least one, each
    lies in [1, ``k_max``] (the table's component count) and none repeats."""
    k_values = [int(k) for k in k_values]
    bad = [k for k in k_values if not 1 <= k <= k_max]
    repeated = sorted({k for k in k_values if k_values.count(k) > 1})
    if not k_values or bad or repeated:
        raise ValueError(f"sweep k values must be >= 1, none exceeds the table's component "
                         f"count {k_max} and none repeats; got {k_values} (out of range: "
                         f"{bad}, repeated: {repeated})")
    return k_values


def eigen_sweep(table: FeatureTable, k_values, classifier: ClassifierConfig | None = None,
                folds: int = FOLDS, seed: int = SEED) -> SweepResult:
    """Expression evaluation at several eigenvalue counts from one
    extraction: each fold is standardized once on the table's columns
    (per-column statistics do not depend on the other columns, and the
    table's missing blocks are filled as in :func:`evaluate_expressions`),
    and each k reads its leading components from it.  The folds depend
    only on the subjects, ``folds`` and ``seed``, so every k gets the same
    ones; under SVM every k of a fold trains in one batched SMO call,
    shared with the folds packed with it (:func:`_predictions`)."""
    k_values = check_sweep(k_values, table.k)
    columns = [None if k == table.k else truncation_columns(
        len(table.landmark_labels), table.method, table.mode, table.k, k) for k in k_values]
    results = _expression_results(table.X, table.expressions, table.subjects, classifier,
                                  folds, seed, table.missing, columns)
    return SweepResult(k_values=k_values, per_k=dict(zip(k_values, results)))


def compare_methods(results: dict) -> dict:
    """Paired per-fold comparison of expression results keyed by method
    name (fold assignments must match).  Emits per-fold differences of
    the first method minus the second and the resulting ordering."""
    names = list(results.keys())
    if len(names) != 2:
        raise ValueError("comparison needs exactly two methods")
    a, b = names
    skipped = {n: [s["fold"] for s in results[n].skipped] for n in names}
    if skipped[a] != skipped[b]:
        raise ValueError(f"methods skipped different folds: {a} {skipped[a]}, "
                         f"{b} {skipped[b]}")
    fa = np.array(results[a].fold_accuracies)
    fb = np.array(results[b].fold_accuracies)
    if fa.shape != fb.shape:
        raise ValueError("fold counts differ between methods")
    diffs = fa - fb
    return {
        "methods": names,
        "fold_accuracies": {a: fa.tolist(), b: fb.tolist()},
        "paired_differences": diffs.tolist(),
        "mean_difference": float(diffs.mean()),
        "mean_accuracy": {a: float(fa.mean()), b: float(fb.mean())},
        "ordering": f"{a} >= {b}" if fa.mean() >= fb.mean() else f"{b} > {a}",
    }


# ---------------------------------------------------------------------------
# Reports

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment_fingerprint() -> dict:
    """Versions, platform, the host's CPU count, the CPUs the process may
    run on (None where the platform cannot say) and the BLAS thread
    settings it runs under (each variable's value, or None when unset)."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "package_version": __version__,
        "cpu_count": os.cpu_count(),
        "usable_cpus": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else None),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
    }


def expression_report_section(result: ExpressionResult) -> dict:
    section = {
        "classes": list(result.classes),
        "fold_accuracies": [round(float(a), 6) for a in result.fold_accuracies],
        "mean_accuracy": round(float(result.mean_accuracy), 6),
        "confusion": result.confusion.as_dict(),
        "n_samples": int(result.n_samples),
        "folds": int(result.folds),
    }
    if result.skipped:
        section["skipped"] = result.skipped
    return section


def au_report_section(result: AUResult) -> dict:
    return {
        "aus": result.rows,
        "weighted_f1": round(float(result.weighted_f1), 6),
        "skipped": result.skipped,
        "folds": int(result.fold_count),
    }


def sweep_report_section(result: SweepResult) -> dict:
    return {
        "k_values": [int(k) for k in result.k_values],
        "per_k": {
            str(k): expression_report_section(r) for k, r in result.per_k.items()
        },
    }


def build_report(task: str, run_config: dict, results: dict,
                 comparison: dict | None = None) -> dict:
    report = {
        "schema_version": 1,
        "task": task,
        "config": run_config,
        "environment": environment_fingerprint(),
        "results": results,
    }
    if comparison is not None:
        report["comparison"] = comparison
    validate_report(report)
    return report


def report_schema() -> dict:
    text = importlib.resources.files("facespectra").joinpath(
        "report_schema.json").read_text(encoding="utf-8")
    return json.loads(text)


@functools.cache
def _report_validator():
    """The validator of the shipped schema, built once per process.  The
    schema itself is checked against its metaschema by the test suite."""
    from jsonschema.validators import validator_for

    schema = report_schema()
    return validator_for(schema)(schema)


def validate_report(report: dict) -> None:
    """Raise the ``jsonschema.ValidationError`` that ``jsonschema.validate``
    would raise for ``report`` against the shipped schema, if any."""
    from jsonschema.exceptions import best_match

    error = best_match(_report_validator().iter_errors(report))
    if error is not None:
        raise error


def save_report(path, report: dict) -> None:
    """Write a report built (and validated) by :func:`build_report`."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# ASCII tables

def format_confusion(confusion: ConfusionMatrix) -> str:
    labels = confusion.labels
    width = max(7, max(len(l) for l in labels) + 1)   # 7: "100.00" and a space
    head = "%".rjust(width) + "".join(l.rjust(width) for l in labels)
    lines = [head]
    for i, l in enumerate(labels):
        row = l.rjust(width)
        row += "".join(f"{confusion.percent[i, j]:{width}.2f}" for j in range(len(labels)))
        lines.append(row)
    return "\n".join(lines)


def format_expression_result(result: ExpressionResult) -> str:
    lines = [
        f"mean accuracy over {result.folds} folds: {100 * result.mean_accuracy:.2f}%",
        "per-fold: " + " ".join(f"{100 * a:.1f}" for a in result.fold_accuracies),
        "confusion (row-averaged %):",
        format_confusion(result.confusion),
    ]
    if result.skipped:
        lines.append(f"skipped folds: {[s['fold'] for s in result.skipped]}")
    return "\n".join(lines)


def format_au_result(result: AUResult) -> str:
    lines = ["  AU  positives  precision  recall      F1"]
    for r in result.rows:
        lines.append(
            f"{r['au']:>4}  {r['positives']:>9}  {r['precision']:>9.3f}"
            f"  {r['recall']:>6.3f}  {r['f1']:>6.3f}"
        )
    lines.append(f"weighted average F1: {result.weighted_f1:.4f}")
    if result.skipped:
        lines.append(f"skipped (AU, fold): {[(s['au'], s['fold']) for s in result.skipped]}")
    return "\n".join(lines)


def format_sweep_result(result: SweepResult) -> str:
    ks = result.k_values
    head = "k".rjust(10) + "".join(str(k).rjust(10) for k in ks)
    acc = "accuracy %".rjust(10) + "".join(
        f"{100 * result.per_k[k].mean_accuracy:10.2f}" for k in ks
    )
    return head + "\n" + acc
