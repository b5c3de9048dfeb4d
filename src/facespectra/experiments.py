"""Cross-validated expression and Action-Unit experiments.

Per fold: standardize features with training statistics, train the
requested classifier, predict the held-out subjects.  What does not
depend on the labels is built once per fold for all its labellings, and
under SVM every labelling of one evaluation trains in one batched SMO
call.  Expression results
report per-fold accuracies and a row-averaged confusion matrix; AU
results report per-AU precision/recall/F1 over the pooled test folds
plus the positives-weighted average.  Reports serialize to JSON and are
validated against the schema shipped with the package.
"""

from __future__ import annotations

import importlib.resources
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import classify
from .classify import (
    AU_SET,
    identity_disjoint_folds,
    standardize_apply,
    standardize_fit,
)
from .features import FeatureTable


@dataclass
class ClassifierConfig:
    kind: str = "svm"            # "svm" | "flda"
    kernel: str = "rbf"          # svm only: "rbf" | "linear"
    C: float = 1.0
    gamma: float | None = None   # None -> 1/d
    reg: float = 1e-3            # flda regularization factor

    def to_dict(self) -> dict:
        return asdict(self)


def _fold_inputs(cfg: ClassifierConfig, X, train, test):
    """What every labelling of one fold shares: its rows standardized
    with training statistics, then the train-by-train and test-by-train
    kernels (SVM) or the standardized rows and the training span (FLDA)."""
    Xtr = X[train]
    mu, sigma = standardize_fit(Xtr)
    Xtr = standardize_apply(Xtr, mu, sigma)
    Xte = standardize_apply(X[test], mu, sigma)
    if cfg.kind == "svm":
        gamma = classify.kernel_gamma(cfg.kernel, cfg.gamma, Xtr.shape[1])
        return (classify.kernel_matrix(Xtr, Xtr, cfg.kernel, gamma),
                classify.kernel_matrix(Xte, Xtr, cfg.kernel, gamma))
    if cfg.kind == "flda":
        return Xtr, Xte, classify.flda_span(Xtr)
    raise ValueError(f"unknown classifier {cfg.kind!r}")


def _training_failed(entry: dict, exc: Exception) -> RuntimeError:
    au = f" for AU {entry['au']}" if "au" in entry else ""
    return RuntimeError(f"training failed in fold {entry['fold']}{au}: {exc}")


def _predictions(cfg: ClassifierConfig, X, splits, jobs):
    """For each job ``(fold, training labels, entry)`` in order, yield the
    fold's test-row labels under ``cfg``'s classifier trained on the
    fold's training rows, or, when its SMO solve did not converge, the
    reason as a string.  Any other failure raises naming the fold and,
    for an AU, the AU.

    Each fold's inputs (:func:`_fold_inputs`) are built once, for its
    first job.  Under SVM every job trains in one batched SMO call
    before the first label is yielded; FLDA fits each job as it is
    reached and holds one fold's inputs at a time.
    """
    inputs = {}

    def fold_inputs(f):
        if f not in inputs:
            if cfg.kind != "svm":
                inputs.clear()
            inputs[f] = _fold_inputs(cfg, X, *splits[f])
        return inputs[f]

    if cfg.kind == "svm":
        folds = []
        for f, labels, entry in jobs:
            try:
                folds.append((labels, fold_inputs(f)[0]))
            except Exception as exc:
                raise _training_failed(entry, exc) from exc
        models = classify.svm_train_folds(
            folds, kernel=cfg.kernel, C=cfg.C,
            gamma=classify.kernel_gamma(cfg.kernel, cfg.gamma, X.shape[1]))
    for n, (f, labels, entry) in enumerate(jobs):
        try:
            if cfg.kind == "svm":
                if isinstance(models[n], Exception):
                    raise models[n]
                pred = classify.svm_predict(models[n], inputs[f][1])
            else:
                Xtr, Xte, span = fold_inputs(f)
                pred = classify.flda_predict(
                    classify.flda_train(Xtr, labels, reg=cfg.reg, span=span), Xte)
        except classify.ConvergenceError as exc:
            yield str(exc)
            continue
        except Exception as exc:
            raise _training_failed(entry, exc) from exc
        yield np.asarray(pred)


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
                         folds: int = 10, seed: int = 0) -> ExpressionResult:
    """Identity-disjoint k-fold evaluation of the 6-class expression task.

    Confusion percentages are computed per fold and averaged row-wise
    over the folds in which the row's class occurs; counts are pooled.

    A fold is skipped and recorded with its reason under FLDA when a
    training class has a single sample, and under SVM when an SMO solve
    does not converge, with a reason that names the failing class pair;
    accuracies and the confusion matrix cover the other folds.  Any other
    training failure, such as a fold with one training class, raises
    naming the fold.
    """
    classifier = classifier or ClassifierConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray([str(e) for e in expressions])
    classes = sorted(set(y.tolist()))
    splits = identity_disjoint_folds(subjects, folds, seed)
    accs = []
    pooled = np.zeros((len(classes), len(classes)), dtype=np.int64)
    pct_sum = np.zeros((len(classes), len(classes)), dtype=np.float64)
    pct_n = np.zeros(len(classes), dtype=np.int64)
    skipped = []
    short = [_flda_short_class(y[train]) if classifier.kind == "flda" else None
             for train, _ in splits]
    preds = _predictions(classifier, X, splits, [
        (f, y[train], {"fold": f}) for f, (train, _) in enumerate(splits) if not short[f]])
    for f, (_, test) in enumerate(splits):
        if short[f]:
            skipped.append({"fold": f, "reason": short[f]})
            continue
        pred = next(preds)
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
        n_samples=X.shape[0],
        folds=len(splits),
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Action-Unit experiment

@dataclass
class AUResult:
    rows: list                   # dicts: au, precision, recall, f1, positives
    weighted_f1: float
    skipped: list                # dicts: au, fold[, reason] (untrainable folds)
    fold_count: int


def evaluate_aus(X: np.ndarray, au_sets, subjects,
                 classifier: ClassifierConfig | None = None,
                 folds: int = 10, seed: int = 0, aus=AU_SET) -> AUResult:
    """One independent binary classifier per AU; F1 per AU over the pooled
    test folds, averaged with per-AU positive counts as weights.

    An AU with zero positive training samples in a fold is skipped for
    that fold and recorded.  FLDA needs two training samples per class,
    so under FLDA a fold with exactly one positive or one negative is
    skipped too, recorded with the counts as its reason, and so is an
    (AU, fold) whose SMO solve does not converge.

    Each AU is a "pos"/"neg" labelling of its fold, so a fold is
    standardized once for all its AUs, and its kernels or span are built
    once, or not at all when every AU is skipped or constant.  Under SVM
    every (AU, fold) trains in one batched SMO call.
    """
    classifier = classifier or ClassifierConfig()
    X = np.asarray(X, dtype=np.float64)
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
                plan.append((a, f, entry, "skip"))
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
    preds = _predictions(classifier, X, splits, jobs)
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


def eigen_sweep(table: FeatureTable, k_values, classifier: ClassifierConfig | None = None,
                folds: int = 10, seed: int = 0) -> SweepResult:
    """Expression evaluation at several eigenvalue counts, reusing the
    extraction (column slicing); the folds depend only on the subjects,
    ``folds`` and ``seed``, so every k gets the same ones."""
    k_values = [int(k) for k in k_values]
    for k in k_values:
        if k < 1:
            raise ValueError(f"k={k} must be >= 1")
        if k > table.k:
            raise ValueError(f"k={k} exceeds the table's component count {table.k}")
    per_k = {k: evaluate_expressions(table.sliced(k).X, table.expressions, table.subjects,
                                     classifier=classifier, folds=folds, seed=seed)
             for k in k_values}
    return SweepResult(k_values=k_values, per_k=per_k)


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
    """Versions, platform, CPU count and the BLAS thread settings the
    process runs under (each variable's value, or None when unset)."""
    from . import __version__

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "package_version": __version__,
        "cpu_count": os.cpu_count(),
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
                 comparison: dict | None = None, errors=None) -> dict:
    report = {
        "schema_version": 1,
        "task": task,
        "config": run_config,
        "environment": environment_fingerprint(),
        "results": results,
    }
    if comparison is not None:
        report["comparison"] = comparison
    if errors:
        report["errors"] = list(errors)
    validate_report(report)
    return report


def report_schema() -> dict:
    text = importlib.resources.files("facespectra").joinpath(
        "report_schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def validate_report(report: dict) -> None:
    import jsonschema

    jsonschema.validate(report, report_schema())


def save_report(path, report: dict) -> None:
    """Write a report built (and validated) by :func:`build_report`."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# ASCII tables

def format_confusion(confusion: ConfusionMatrix) -> str:
    labels = confusion.labels
    width = max(6, max(len(l) for l in labels) + 1)
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
